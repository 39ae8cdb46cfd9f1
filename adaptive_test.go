package chipvqa_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"testing"

	chipvqa "repro"
	"repro/internal/eval"
)

// pinnedTranscriptDigest is the SHA-256 of the complete serial
// tournament transcript over the "bench" calibration bank (200
// questions per discipline) with tie-break seed "bench-0": every
// event's model, question, response, verdict, ability and standard
// error bits and stop reason, then the final standings. Any change to
// item selection, the posterior update or the stopping rules moves it.
const pinnedTranscriptDigest = "ad36fe9340489a9975a500647d3eea53d05350c7ddaa4bd89c83ae944cd2b972"

// TestTournamentTranscriptPinned pins the adaptive tournament's
// observable behaviour bit for bit on a production-sized bank, so
// performance work on selection and estimation has to keep every
// decision and every posterior summary identical.
func TestTournamentTranscriptPinned(t *testing.T) {
	ctx := context.Background()
	s, err := chipvqa.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	cal, err := s.AdaptiveCalibrate(ctx, "bench", 200)
	if err != nil {
		t.Fatal(err)
	}
	names := s.ModelNames()
	models := make([]eval.Model, len(names))
	for i, n := range names {
		if models[i], err = s.Model(n); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	events := 0
	r := eval.Runner{Workers: 1, Observer: eval.ObserverFunc(func(ev eval.Event) {
		events++
		writeFields(h, ev.Model.Name(), ev.Question.ID, ev.Response,
			strconv.FormatBool(ev.Correct),
			bitsOf(ev.Ability), bitsOf(ev.AbilitySE), ev.StopReason)
	})}
	res, err := cal.Run(ctx, r, models, chipvqa.AdaptiveConfig{Seed: "bench-0"})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Standings {
		writeFields(h, st.Model, bitsOf(st.Ability), bitsOf(st.SE),
			strconv.Itoa(st.Asked), st.StopReason)
	}
	if events != res.QuestionsAsked {
		t.Fatalf("observer saw %d events, tournament asked %d", events, res.QuestionsAsked)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedTranscriptDigest {
		t.Fatalf("transcript digest %s over %d events, pinned %s", got, events, pinnedTranscriptDigest)
	}
}

// writeFields appends one record of length-prefixed fields, so no
// field boundary can be shifted without changing the digest.
func writeFields(h hash.Hash, fields ...string) {
	for _, f := range fields {
		h.Write(strconv.AppendInt(nil, int64(len(f)), 10))
		h.Write([]byte{':'})
		h.Write([]byte(f))
	}
	h.Write([]byte{'\n'})
}

func bitsOf(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }
