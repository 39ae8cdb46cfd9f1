//go:build !race

// Allocation pins for the hot paths of DESIGN.md §12. The race
// detector instruments allocations, so these run only in the plain
// test pass; the race pass still exercises the same code through the
// functional tests.

package eval

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestNormalizeZeroAlloc pins the canonical-input fast path: Normalize
// must return already-normalised strings unchanged without allocating.
func TestNormalizeZeroAlloc(t *testing.T) {
	inputs := []string{
		"",
		"full adder",
		"clock tree synthesis",
		"2200 ohm",
		"a'b + ab'",
	}
	for _, in := range inputs {
		in := in
		if got := Normalize(in); got != in {
			t.Fatalf("Normalize(%q) = %q, not canonical", in, got)
		}
		var sink string
		allocs := testing.AllocsPerRun(100, func() {
			sink = Normalize(in)
		})
		if allocs != 0 {
			t.Errorf("Normalize(%q): %v allocs/op, want 0", in, allocs)
		}
		_ = sink
	}
}

// TestParseNumberZeroAlloc pins ParseNumber — including the SI-prefix
// unit resolution with uppercase spellings and the ohm and micro signs —
// at zero steady-state allocations.
func TestParseNumberZeroAlloc(t *testing.T) {
	inputs := []string{
		"2.2 kOhm",
		"2 Mrad/s",
		"625 MHz",
		"-10 V/V",
		"about 43 nm of silicon",
		"1.5e3 Hz",
		"answer: 7",
		"2.2 k\u03a9",
		"3 M\u2126",
		"1000 \u00b5A",
		"1000 \u03bcA",
	}
	for _, in := range inputs {
		in := in
		if _, _, ok := ParseNumber(in); !ok {
			t.Fatalf("ParseNumber(%q) found no number", in)
		}
		allocs := testing.AllocsPerRun(100, func() {
			ParseNumber(in)
		})
		if allocs != 0 {
			t.Errorf("ParseNumber(%q): %v allocs/op, want 0", in, allocs)
		}
	}
}

// TestJudgeZeroAlloc pins the full judge dispatch for all four answer
// kinds at zero steady-state allocations. One warm-up call per case
// grows the pooled Scratch buffers and populates the expression memo —
// the steady state every evaluation loop after the first reaches.
func TestJudgeZeroAlloc(t *testing.T) {
	j := Judge{}
	cases := []struct {
		name     string
		q        *dataset.Question
		response string
	}{
		{"choice-letter", mcQuestion(), "answer: b"},
		{"choice-content", mcQuestion(), "it is a full adder circuit"},
		{"number", &dataset.Question{
			Golden: dataset.Answer{Kind: dataset.AnswerNumber, Number: 2200, Unit: "Ohm", Tolerance: 0.02},
		}, "2.2 kOhm"},
		{"expression", &dataset.Question{
			Golden: dataset.Answer{Kind: dataset.AnswerExpression, Text: "F = A'B + AB'"},
		}, "A ^ B"},
		{"phrase", &dataset.Question{
			Golden: dataset.Answer{
				Kind: dataset.AnswerPhrase, Text: "clock tree synthesis",
				Accept: []string{"CTS"},
			},
		}, "it performs clock tree synthesis before routing"},
		// Longer than Scratch's 128-byte starting buffer, with a
		// non-ASCII rune: the kernel hands its tail to the rune loop.
		{"phrase-prose-non-ascii", &dataset.Question{
			Golden: dataset.Answer{Kind: dataset.AnswerPhrase, Text: "clock tree synthesis"},
		}, "After placement, the flow runs Clock Tree Synthesis to hold skew within ±5 ps across the die, " +
			"then detailed routing and timing sign-off."},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if !j.Correct(c.q, c.response) { // warm-up; must also be correct
				t.Fatalf("warm-up judge call rejected %q", c.response)
			}
			allocs := testing.AllocsPerRun(100, func() {
				j.Correct(c.q, c.response)
			})
			if allocs != 0 {
				t.Errorf("Judge.Correct(%s): %v allocs/op, want 0", c.name, allocs)
			}
		})
	}
}

// TestPipelineZeroAllocPerEvent pins the per-event pipeline path —
// claim, infer, judge, reorder ring, drain — at 0 allocations: a run's
// allocations are its set-up (ring, workers, gate), so a 4,096-event
// grid allocates exactly as often as a 64-event one.
func TestPipelineZeroAllocPerEvent(t *testing.T) {
	b := testBenchmark(64)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	allocs := func(models int) float64 {
		ms := make([]Model, models)
		for i := range ms {
			ms[i] = m
		}
		return testing.AllocsPerRun(20, func() {
			p := &Pipeline{
				Source:  gridSource{models: ms, questions: b.Questions},
				Infer:   constStage{},
				Judge:   constStage{},
				Sink:    nopSink{},
				Workers: 2,
			}
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1), allocs(64)
	if per := (large - small) / (64*64 - 64); per > 0 {
		t.Errorf("Pipeline.Run: %.0f allocs for 4096 events vs %.0f for 64: %.4f per event, want 0", large, small, per)
	}
}

// TestEvaluateAllIntoAllocs pins what one grid call allocates at two
// workers when its reports already have room: the shard call's state,
// the verdict memo's rows, the reorder ring, the run's delivery and
// per-worker events, and the worker goroutines. Nothing in it grows
// with the grid (TestPipelineZeroAllocPerEvent), so the count is a
// constant of the call: 13, one fewer than before the memo, whose rows
// cost one allocation while the scheduler gate, now inside the
// delivery and without a channel until a worker waits, saved two.
func TestEvaluateAllIntoAllocs(t *testing.T) {
	const want = 13
	b := testBenchmark(64)
	models := []Model{
		fixedModel{"right", func(*dataset.Question) string { return "c" }},
		fixedModel{"wrong", func(*dataset.Question) string { return "a" }},
		fixedModel{"echo", func(q *dataset.Question) string { return q.Golden.Text }},
	}
	r := Runner{Workers: 2}
	ctx := context.Background()
	reports, err := r.EvaluateAllContext(ctx, models, b)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.EvaluateAllInto(ctx, models, b, reports); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > want {
		t.Errorf("EvaluateAllInto: %v allocs per call, want at most %d", allocs, want)
	}
}
