package eval

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

func TestWorkersNormalization(t *testing.T) {
	auto := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers int
		want    int
	}{
		{-1, auto},  // negative = auto
		{-99, auto}, // any negative normalizes
		{0, auto},   // zero value is auto too
		{1, 1},
		{7, 7},
	}
	for _, c := range cases {
		if got := (Runner{Workers: c.workers}).EffectiveWorkers(); got != c.want {
			t.Errorf("Workers=%d: effective %d, want %d", c.workers, got, c.want)
		}
	}
}

func TestEvaluateAllParallelMatchesSerial(t *testing.T) {
	b := testBenchmark(30)
	models := []Model{
		fixedModel{"m1", func(q *dataset.Question) string { return "c" }},
		fixedModel{"m2", func(q *dataset.Question) string { return "a" }},
		fixedModel{"m3", func(q *dataset.Question) string {
			if q.ID[len(q.ID)-1]%2 == 0 {
				return "c"
			}
			return "b"
		}},
	}
	serial := Runner{Workers: 1}.EvaluateAll(models, b)
	parallel := Runner{Workers: 8}.EvaluateAll(models, b)
	if len(serial) != len(parallel) {
		t.Fatalf("report counts %d vs %d", len(serial), len(parallel))
	}
	for mi := range serial {
		if serial[mi].ModelName != parallel[mi].ModelName {
			t.Fatalf("model order differs at %d", mi)
		}
		for qi := range serial[mi].Results {
			if serial[mi].Results[qi] != parallel[mi].Results[qi] {
				t.Fatalf("model %d result %d differs: %+v vs %+v",
					mi, qi, serial[mi].Results[qi], parallel[mi].Results[qi])
			}
		}
	}
}

func TestEvaluateAllEmptyBenchmark(t *testing.T) {
	b := testBenchmark(0)
	reps := Runner{Workers: -1}.EvaluateAll([]Model{
		fixedModel{"m", func(*dataset.Question) string { return "" }},
	}, b)
	if len(reps) != 1 || len(reps[0].Results) != 0 {
		t.Fatalf("empty benchmark reports %+v", reps)
	}
}

func TestTruncateRuneSafe(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string
	}{
		{"Digital", 7, "Digital"},
		{"Manufacture", 7, "Manufac"},
		{"数字设计验证", 3, "数字设"}, // must cut between runes, not bytes
		{"éééé", 2, "éé"},
		{"", 3, ""},
	}
	for _, c := range cases {
		if got := truncate(c.in, c.n); got != c.want {
			t.Errorf("truncate(%q, %d) = %q, want %q", c.in, c.n, got, c.want)
		}
	}
}
