package vlm

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
)

// refModel answers through answerRef, the answer path as it was before
// the Zoo's answer tables. Its decision maps hold what the old
// per-model maps held, rebuilt from the tables by question ID.
type refModel struct {
	*SimulatedVLM
	mc, sa, saStd map[string]decision
}

func newRefModel(m *SimulatedVLM) *refModel {
	r := &refModel{SimulatedVLM: m,
		mc: map[string]decision{}, sa: map[string]decision{}, saStd: map[string]decision{}}
	for id, i := range m.bank.index {
		for _, t := range []struct {
			dst map[string]decision
			src []entry
		}{{r.mc, m.mc}, {r.sa, m.sa}, {r.saStd, m.saStd}} {
			if d := t.src[i].decision(); d != decUnknown {
				t.dst[id] = d
			}
		}
	}
	return r
}

// answerRef is SimulatedVLM.Answer before the answer tables, kept
// verbatim with the helpers it called (suffixed Ref) as the oracle the
// table path must match byte for byte.
func (m *refModel) answerRef(q *dataset.Question, opts eval.InferenceOptions) string {
	if !m.perceives(q, m.key.String(q.ID), opts.DownsampleFactor) {
		return m.perceptionFailureResponse(q)
	}
	dec := m.decisionForRef(q)
	switch dec {
	case decSolve:
		return m.goldenResponseRef(q, true)
	case decGuessCorrect:
		return dataset.ChoiceLetter(q.Golden.Choice)
	case decGuessWrong:
		return m.wrongLetterRef(q)
	case decMalformed:
		return m.malformedResponse(q)
	default:
		return m.wrongShortAnswerRef(q)
	}
}

func (m *refModel) decisionForRef(q *dataset.Question) decision {
	var table map[string]decision
	switch {
	case q.Type == dataset.MultipleChoice:
		table = m.mc
	case q.Challenge:
		table = m.sa
	default:
		table = m.saStd
	}
	if d, ok := table[q.ID]; ok && d != decUnknown {
		return d
	}
	// Unseen question: fall back to hash-threshold sampling against the
	// profile's calibration targets.
	var target float64
	if q.Type == dataset.MultipleChoice {
		target = m.profile.WithChoice[q.Category]
	} else {
		target = m.profile.NoChoice[q.Category]
	}
	if rng.NewHasher(m.profile.Name, q.ID, "fallback", q.Type.String()).Bernoulli(target) {
		return decSolve
	}
	if q.Type == dataset.MultipleChoice {
		return decGuessWrong
	}
	return decWrongAnswer
}

func (m *refModel) goldenResponseRef(q *dataset.Question, verbose bool) string {
	if q.Type == dataset.MultipleChoice {
		letter := dataset.ChoiceLetter(q.Golden.Choice)
		if verbose {
			return letter + ") " + q.Choices[q.Golden.Choice]
		}
		return letter
	}
	switch q.Golden.Kind {
	case dataset.AnswerNumber:
		if q.Golden.Text != "" {
			return q.Golden.Text
		}
		return quantity(q.Golden.Number, q.Golden.Unit)
	default:
		return q.Golden.Text
	}
}

func (m *refModel) wrongLetterRef(q *dataset.Question) string {
	s := rng.NewHasher(m.profile.Name, q.ID, "wrong-letter").Stream()
	off := 1 + s.IntN(3)
	return dataset.ChoiceLetter((q.Golden.Choice + off) % 4)
}

func (m *refModel) wrongShortAnswerRef(q *dataset.Question) string {
	switch q.Golden.Kind {
	case dataset.AnswerNumber:
		// Classic slip: off by a factor well outside tolerance.
		s := rng.NewHasher(m.profile.Name, q.ID, "wrong-num").Stream()
		factor := [...]float64{3.1, 0.31, -1.7}[s.IntN(3)]
		return quantity(q.Golden.Number*factor+1, q.Golden.Unit)
	case dataset.AnswerExpression:
		// Plausible but never equivalent to the non-trivial functions
		// the benchmark asks for.
		return "F = A + B'"
	default:
		return "it is a standard configuration commonly used in this context"
	}
}

// quantity is the formatter the answer path called per answer before
// each question's responses were built once.
func quantity(x float64, unit string) string {
	var buf [48]byte
	b := strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
	b = append(b, ' ')
	return string(append(b, unit...))
}

// answerOrPanic returns answer's response, or the value it panicked
// with: a question the reference cannot answer must fail the same way.
func answerOrPanic(answer func() string) (resp string, panicked any) {
	defer func() { panicked = recover() }()
	return answer(), nil
}

// checkAnswerMatchesRef compares Answer with answerRef on one question.
func checkAnswerMatchesRef(t *testing.T, m *SimulatedVLM, ref *refModel, q *dataset.Question, factor int) {
	t.Helper()
	opts := eval.InferenceOptions{DownsampleFactor: factor}
	got, gotPanic := answerOrPanic(func() string { return m.Answer(q, opts) })
	want, wantPanic := answerOrPanic(func() string { return ref.answerRef(q, opts) })
	if got != want || fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
		t.Fatalf("%s %s (ord %d, %v, challenge %v) %dx: Answer = %q (panic %v), answerRef = %q (panic %v)",
			m.Name(), q.ID, q.Ord, q.Type, q.Challenge, factor, got, gotPanic, want, wantPanic)
	}
}

// TestAnswerMatchesRefOnZoo compares every response of the 12-model zoo
// with answerRef's: on the standard and challenge collections, which
// the tables answer, and on a pack-loaded copy, a JSON round-trip copy
// and an extended fold, which take the general path. The extended fold
// is answered twice: the first pass builds each question's Memo record,
// the second reads it.
func TestAnswerMatchesRefOnZoo(t *testing.T) {
	b, chal, zoo := buildAll(t)
	var pack, js bytes.Buffer
	if err := dataset.WritePack(&pack, b); err != nil {
		t.Fatal(err)
	}
	packed, err := dataset.ReadPackBytes(pack.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	decoded, err := dataset.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := core.BuildExtended("answer-ref", 20)
	if err != nil {
		t.Fatal(err)
	}
	calibrated := [][]*dataset.Question{b.Questions, chal.Questions}
	general := [][]*dataset.Question{packed.Questions, packed.Challenge().Questions,
		decoded.Questions, decoded.Challenge().Questions, ext.Questions}
	for _, m := range zoo.Models() {
		ref := newRefModel(m)
		for _, qs := range calibrated {
			for _, q := range qs {
				if f, _ := m.calibrated(q); f == nil {
					t.Fatalf("%s %s (challenge %v): not answered from the tables", m.Name(), q.ID, q.Challenge)
				}
			}
		}
		for _, qs := range general {
			for _, q := range qs {
				if f, _ := m.calibrated(q); f != nil {
					t.Fatalf("%s %s (ord %d): a copy answered from the tables", m.Name(), q.ID, q.Ord)
				}
			}
		}
		for _, qs := range append(calibrated, general...) {
			for _, q := range qs {
				for _, factor := range []int{1, 2, 8, 16} {
					checkAnswerMatchesRef(t, m, ref, q, factor)
				}
			}
		}
	}
	records := make([]any, len(ext.Questions))
	for i, q := range ext.Questions {
		if records[i] = q.Memo.Load(); records[i] == nil {
			t.Fatalf("%s: no Memo record after the first pass", q.ID)
		}
	}
	for _, m := range zoo.Models() {
		ref := newRefModel(m)
		for _, q := range ext.Questions {
			for _, factor := range []int{1, 2, 8, 16} {
				checkAnswerMatchesRef(t, m, ref, q, factor)
			}
		}
	}
	for i, q := range ext.Questions {
		if q.Memo.Load() != records[i] {
			t.Fatalf("%s: the second pass replaced the Memo record", q.ID)
		}
	}
}

// FuzzAnswerMatchesRef mutates a copy of a calibrated question (its
// golden number, unit, text, choice and kind, its options, ordinal, ID,
// type and challenge flag, in any combination) and compares Answer with
// answerRef on it, twice: the first answer builds the copy's Memo
// record, the second reads it. mask selects the mutations; n, x and s
// feed them.
func FuzzAnswerMatchesRef(f *testing.F) {
	b, chal, zoo := buildAll(f)
	refs := make([]*refModel, len(zoo.Models()))
	for i, m := range zoo.Models() {
		refs[i] = newRefModel(m)
	}
	f.Add(uint16(0), uint8(0), false, uint8(0), uint16(0), 0, 0.0, "")
	for bit := range 12 {
		for _, qi := range []uint16{0, 7, 40, 101, 141} {
			f.Add(qi, uint8(qi), qi%2 == 0, uint8(bit), uint16(1)<<bit, int(qi)+1, 2.5, "V")
			f.Add(qi, uint8(bit), true, uint8(qi), uint16(1)<<bit|1<<((bit+5)%12), -1, math.Copysign(0, -1), "")
		}
	}
	f.Fuzz(func(t *testing.T, qi uint16, mi uint8, challenge bool, fi uint8, mask uint16, n int, x float64, s string) {
		set := b.Questions
		if challenge {
			set = chal.Questions
		}
		q := set[int(qi)%len(set)].Clone()
		mutations := []func(){
			func() { q.Golden.Number = x },
			func() { q.Golden.Unit = s },
			func() { q.Golden.Text = s },
			func() { q.Golden.Choice = n },
			func() { q.Golden.Kind = dataset.AnswerKind(n & 7) },
			func() {
				if len(q.Choices) == 0 {
					q.Choices = []string{s, s, s, s}
					return
				}
				q.Choices = append([]string(nil), q.Choices...)
				q.Choices[uint(n)%uint(len(q.Choices))] = s
			},
			func() { q.Choices = q.Choices[:uint(n)%uint(len(q.Choices)+1)] },
			func() { q.Ord = int32(n) },
			func() { q.ID = s },
			func() { q.ID = b.Questions[uint(n)%uint(len(b.Questions))].ID },
			func() { q.Type = dataset.QType(n & 3) },
			func() { q.Challenge = !q.Challenge },
		}
		for i, mutate := range mutations {
			if mask&(1<<i) != 0 {
				mutate()
			}
		}
		i := int(mi) % len(refs)
		factor := []int{1, 2, 4, 8, 16, 32}[int(fi)%6]
		checkAnswerMatchesRef(t, zoo.Models()[i], refs[i], q, factor)
		checkAnswerMatchesRef(t, zoo.Models()[i], refs[i], q, factor)
	})
}
