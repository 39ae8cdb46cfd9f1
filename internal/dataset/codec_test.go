package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/visual"
)

// fixtureBenchmark builds a small benchmark by hand covering the shapes
// the codec must round-trip: MC and SA questions, Accept lists, scene
// elements with Points and Attrs, the Challenge flag, and repeated
// strings that exercise the intern table. (Build-based round-trip tests
// live in internal/core, whose test binary links the real disciplines;
// this binary deliberately does not — see registry_test.go.)
func fixtureBenchmark() *Benchmark {
	sceneA := visual.NewScene(visual.KindSchematic, "RC filter")
	sceneA.AddAll(
		visual.Element{Type: visual.ElemResistor, Name: "R1", Label: "R=1k",
			X: 10, Y: 20, X2: 30, Y2: 20, Critical: true,
			Attrs: map[string]string{"layer": "m1", "net": "vin"}},
		visual.Element{Type: visual.ElemTrace, Name: "vout", Label: "vout(t)",
			Points: []visual.Point{{X: 0, Y: 0}, {X: 1, Y: 0.63}, {X: 2, Y: 0.86}}},
	)
	sceneB := visual.NewScene(visual.KindTable, "Cache parameters")
	sceneB.Add(visual.Element{Type: visual.ElemCell, Name: "c00", Label: "32 KiB",
		Attrs: map[string]string{"row": "0", "col": "0"}, Critical: true})
	return &Benchmark{
		Name: "fixture",
		Questions: []*Question{
			{
				ID: "fx-mc-0", Category: Analog, Type: MultipleChoice,
				Topic: "rc-cutoff", Prompt: "What is the cutoff frequency?",
				Choices: []string{"159 Hz", "1.59 kHz", "15.9 kHz", "159 kHz"},
				Golden: Answer{Kind: AnswerChoice, Choice: 1, Text: "1.59 kHz",
					Number: 1590, Unit: "Hz", Tolerance: 0.02},
				Visual: sceneA, Difficulty: 0.45,
			},
			{
				ID: "fx-sa-0", Category: Architecture, Type: ShortAnswer,
				Topic: "cache-sets", Prompt: "How many sets does the cache have?",
				Golden: Answer{Kind: AnswerNumber, Number: 128, Unit: "sets",
					Accept: []string{"128 sets", "2^7"}},
				Visual: sceneB, Challenge: true, Difficulty: 0.5,
			},
			{
				ID: "fx-sa-1", Category: Digital, Type: ShortAnswer,
				Topic: "rc-cutoff", Prompt: "Same unit again exercises interning.",
				Golden:     Answer{Kind: AnswerPhrase, Text: "it does", Unit: "Hz"},
				Visual:     visual.NewScene(visual.KindEquation, "RC filter"),
				Difficulty: 0.8,
			},
		},
	}
}

func fixturePack(t *testing.T, b *Benchmark) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePack(&buf, b); err != nil {
		t.Fatalf("WritePack: %v", err)
	}
	return buf.Bytes()
}

// TestPackFixtureRoundTrip checks full value fidelity on the hand-built
// shapes: pack(load(pack(b))) must equal pack(b) byte for byte and the
// loaded questions must JSON-match the originals field for field.
func TestPackFixtureRoundTrip(t *testing.T) {
	b := fixtureBenchmark()
	first := fixturePack(t, b)
	loaded, err := ReadPack(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("ReadPack: %v", err)
	}
	if loaded.Name != b.Name {
		t.Errorf("name = %q, want %q", loaded.Name, b.Name)
	}
	if second := fixturePack(t, loaded); !bytes.Equal(first, second) {
		t.Error("pack(load(pack(b))) differs from pack(b)")
	}
	var origJSON, loadJSON bytes.Buffer
	if err := b.WriteJSON(&origJSON); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := loaded.WriteJSON(&loadJSON); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(origJSON.Bytes(), loadJSON.Bytes()) {
		t.Error("loaded benchmark not JSON-identical to original")
	}
	// Spot-check the fields JSON does not carry.
	if !loaded.Questions[1].Challenge {
		t.Error("Challenge flag lost in round trip")
	}
}

// TestReadPackBytesLeavesCallerBuffer checks that a decoded benchmark
// does not alias the caller's bytes: overwriting the buffer after
// ReadPackBytes returns must not change a single decoded field.
func TestReadPackBytesLeavesCallerBuffer(t *testing.T) {
	raw := fixturePack(t, fixtureBenchmark())
	loaded, err := ReadPackBytes(raw)
	if err != nil {
		t.Fatalf("ReadPackBytes: %v", err)
	}
	var before, after bytes.Buffer
	if err := loaded.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 'x'
	}
	if err := loaded.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("overwriting the caller's buffer changed the decoded benchmark")
	}
}

// TestPackInterningReusesStrings verifies the size win the intern table
// exists for. Interning promotes a string on its second occurrence, so
// the win shows up from the third copy of a question onward: every
// repeated topic, unit, choice, label and attribute collapses to a
// one- or two-byte reference, leaving the unique ID as the dominant
// marginal cost.
func TestPackInterningReusesStrings(t *testing.T) {
	// String-heavy and float-light on purpose: floats never intern, so a
	// question dominated by repeated strings shows the table's effect.
	scene := visual.NewScene(visual.KindEquation, "a shared equation panel title")
	clone := func(id string) *Question {
		return &Question{
			ID: id, Category: Digital, Type: ShortAnswer,
			Topic:  "interning-topic-with-some-length",
			Prompt: "a deliberately repeated prompt kept under the interning cap",
			Golden: Answer{Kind: AnswerPhrase, Text: "a repeated phrase answer",
				Accept: []string{"first alias of the answer", "second alias of the answer"}},
			Visual: scene, Difficulty: 0.5,
		}
	}
	many := &Benchmark{Name: "n"}
	for i := 0; i < 21; i++ {
		many.Questions = append(many.Questions, clone(fmt.Sprintf("fx-mc-%02d", i)))
	}
	allLen := len(fixturePack(t, many))
	oneLen := len(fixturePack(t, &Benchmark{Name: "n", Questions: many.Questions[:1]}))
	fresh := oneLen - len(fixturePack(t, &Benchmark{Name: "n"}))
	perClone := (allLen - oneLen) / 20
	if perClone*2 >= fresh {
		t.Errorf("marginal cost per repeated question %d >= half of fresh encode %d; interning ineffective",
			perClone, fresh)
	}
}

// TestParsePackParallelMatchesSerial forces the worker-pool decode path
// (ReadPack only engages it when GOMAXPROCS > 1) and checks it yields
// exactly the sequential result, and that decode errors still surface.
func TestParsePackParallelMatchesSerial(t *testing.T) {
	b := fixtureBenchmark()
	many := &Benchmark{Name: "par"}
	for i := 0; i < 100; i++ {
		q := *b.Questions[i%len(b.Questions)]
		q.ID = fmt.Sprintf("par-%03d", i)
		many.Questions = append(many.Questions, &q)
	}
	raw := fixturePack(t, many)
	serial, err := parsePack(string(raw), 1)
	if err != nil {
		t.Fatalf("parsePack(workers=1): %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := parsePack(string(raw), workers)
		if err != nil {
			t.Fatalf("parsePack(workers=%d): %v", workers, err)
		}
		var sj, pj bytes.Buffer
		if err := serial.WriteJSON(&sj); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteJSON(&pj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
			t.Errorf("workers=%d: parallel decode differs from sequential", workers)
		}
	}
	// A corrupted record must fail identically regardless of parallelism.
	bad := bytes.Clone(raw)
	bad[len(bad)/2] ^= 0x40
	for _, workers := range []int{1, 4} {
		if _, err := parsePack(string(bad), workers); err == nil {
			t.Errorf("workers=%d: corruption went undetected", workers)
		}
	}
}

func TestPackRejectsBadHeader(t *testing.T) {
	if _, err := NewPackReader(bytes.NewReader([]byte("JUNKdata"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	pw := NewPackWriter(&buf, "v")
	if err := pw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw := buf.Bytes()
	raw[4] = 0x7f // version byte
	if _, err := NewPackReader(bytes.NewReader(raw)); err == nil {
		t.Error("future version accepted")
	}
}

func TestPackRejectsTruncation(t *testing.T) {
	good := fixturePack(t, fixtureBenchmark())
	for _, n := range []int{3, 10, len(good) / 2, len(good) - 1} {
		if _, err := ReadPack(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestPackDetectsCorruption flips bytes at several positions and
// expects a decode error or checksum failure — never a silent wrong
// benchmark.
func TestPackDetectsCorruption(t *testing.T) {
	good := fixturePack(t, fixtureBenchmark())
	for _, pos := range []int{len(good) / 3, len(good) / 2, len(good) - 5} {
		bad := bytes.Clone(good)
		bad[pos] ^= 0x40
		if _, err := ReadPack(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at byte %d went undetected", pos)
		}
	}
}

// failAfter errors once n bytes have been written — exercising the
// writer's error surfacing through WriteQuestion and Close (the
// cmdRender Close-error discipline, satellite of ISSUE 7).
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestPackWriterSurfacesWriteErrors(t *testing.T) {
	b := fixtureBenchmark()
	for _, limit := range []int{0, 2, 40, 200} {
		pw := NewPackWriter(&failAfter{n: limit}, b.Name)
		var firstErr error
		for _, q := range b.Questions {
			if err := pw.WriteQuestion(q); err != nil {
				firstErr = err
				break
			}
		}
		if err := pw.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr == nil {
			t.Errorf("limit %d: no error surfaced", limit)
		}
		if err := pw.WriteQuestion(b.Questions[0]); err == nil {
			t.Errorf("limit %d: write after Close accepted", limit)
		}
	}
}

func TestStreamPackGeometry(t *testing.T) {
	b := fixtureBenchmark()
	raw := fixturePack(t, b)
	var starts []int
	err := StreamPack(bytes.NewReader(raw), 2, func(s Shard) error {
		starts = append(starts, s.Start)
		if s.Index != len(starts)-1 {
			t.Errorf("shard index %d out of order", s.Index)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("StreamPack: %v", err)
	}
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 2 {
		t.Errorf("shard starts = %v, want [0 2]", starts)
	}
}

func TestStreamPackStopsOnYieldError(t *testing.T) {
	raw := fixturePack(t, fixtureBenchmark())
	sentinel := errors.New("stop")
	calls := 0
	err := StreamPack(bytes.NewReader(raw), 1, func(Shard) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("yield called %d times, want 1", calls)
	}
}

func TestStreamPackRejectsBadArgs(t *testing.T) {
	nop := func(Shard) error { return nil }
	if err := StreamPack(bytes.NewReader(nil), 0, nop); err == nil {
		t.Error("shardSize=0 accepted")
	}
	if err := StreamPack(bytes.NewReader(nil), 4, nil); err == nil {
		t.Error("nil yield accepted")
	}
	if err := StreamPack(io.LimitReader(bytes.NewReader(nil), 0), 4, nop); err == nil {
		t.Error("empty stream accepted")
	}
}
