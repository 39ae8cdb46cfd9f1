package eval

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestContainsPhraseBytesMatchesString differentially pins the byte-
// slice twin used on the scratch-buffer judge path against the string
// original across the boundary shapes that matter: empty and single-
// character needles, word-boundary hits and misses, repeated partial
// matches before a real one.
func TestContainsPhraseBytesMatchesString(t *testing.T) {
	cases := []struct{ haystack, needle string }{
		{"", ""},
		{"a", ""},
		{"a", "a"},
		{"ab", "a"},
		{"a b", "a"},
		{"it is a standard configuration", "and"},
		{"the and gate", "and"},
		{"and", "and"},
		{"household issues", "hold"},
		{"it fixes hold violations", "hold"},
		{"hold", "household"},
		{"xx and and-gate and", "and-gate"},
		{"a full adder circuit", "full adder"},
		{"fullfull adder adder full adder", "full adder"},
		{"2200 ohm resistor", "2200 ohm"},
		{"ends with needle", "needle"},
		{"needle starts", "needle"},
	}
	for _, c := range cases {
		want := containsPhrase(c.haystack, c.needle)
		got := containsPhraseBytes([]byte(c.haystack), []byte(c.needle))
		if got != want {
			t.Errorf("containsPhraseBytes(%q, %q) = %v, containsPhrase = %v",
				c.haystack, c.needle, got, want)
		}
	}
}

// TestApplyUnitSICasePairs pins the case-sensitive SI prefix handling
// that the in-place ASCII fold must not disturb: mega and milli differ
// only by case on the prefix letter, while K/k and the MEG spellings
// are case-insensitive aliases.
func TestApplyUnitSICasePairs(t *testing.T) {
	cases := []struct {
		tok  string
		mult float64
		unit string
	}{
		{"Mrad/s", 1e6, "rad/s"},
		{"mrad/s", 1e-3, "rad/s"},
		{"MEGohm", 1e6, "ohm"},
		{"Megohm", 1e6, "ohm"},
		{"megohm", 1e6, "ohm"},
		{"KOhm", 1e3, "ohm"},
		{"kOhm", 1e3, "ohm"},
		{"kohm", 1e3, "ohm"},
		{"MV", 1e-3, "v"}, // compound "mv" wins over prefix split: historical semantics
		{"mV", 1e-3, "v"},
		{"GHz", 1e9, "hz"},
		{"uA", 1e-6, "a"},
		{"nF", 1e-9, "f"},
	}
	for _, c := range cases {
		v, u := applyUnit(1, c.tok)
		if v != c.mult || u != c.unit {
			t.Errorf("applyUnit(1, %q) = (%v, %q), want (%v, %q)",
				c.tok, v, u, c.mult, c.unit)
		}
	}
}

// TestEvaluateAllIntoReuse covers the grid form: buffer reuse across
// runs, window isolation between adjacent models sharing one backing
// array, and the length-mismatch guard.
func TestEvaluateAllIntoReuse(t *testing.T) {
	b := testBenchmark(6)
	models := []Model{
		fixedModel{"right", func(q *dataset.Question) string { return "c" }},
		fixedModel{"wrong", func(q *dataset.Question) string { return "a" }},
	}
	r := Runner{Workers: 3}
	reps, err := r.EvaluateAllContext(context.Background(), models, b)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Pass1() != 1 || reps[1].Pass1() != 0 {
		t.Fatalf("pass@1 = %v, %v", reps[0].Pass1(), reps[1].Pass1())
	}
	for i, rep := range reps {
		if len(rep.Results) != 6 {
			t.Fatalf("report %d: %d results", i, len(rep.Results))
		}
	}
	first := &reps[0].Results[0]
	if err := r.EvaluateAllInto(context.Background(), models, b, reps); err != nil {
		t.Fatal(err)
	}
	if &reps[0].Results[0] != first {
		t.Error("EvaluateAllInto reallocated a Results backing array")
	}
	if reps[0].Pass1() != 1 || reps[1].Pass1() != 0 {
		t.Errorf("after reuse: pass@1 = %v, %v", reps[0].Pass1(), reps[1].Pass1())
	}
	if err := r.EvaluateAllInto(context.Background(), models, b, reps[:1]); err == nil {
		t.Error("length mismatch not rejected")
	}
}
