package eval_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/vlm"
)

// The verdict memo against judging every event, on the model zoo. Each
// test runs its grid at 1, 2 and 8 workers; run under -race they also
// race the memo's claims and publications.

var verdictWorkers = []int{1, 2, 8}

// sameReports fails t at the first result where got and want differ.
func sameReports(t *testing.T, what string, got, want []*eval.Report) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ModelName != w.ModelName || len(g.Results) != len(w.Results) {
			t.Fatalf("%s: report %d is %s with %d results, want %s with %d", what, i, g.ModelName, len(g.Results), w.ModelName, len(w.Results))
		}
		for k := range w.Results {
			if g.Results[k] != w.Results[k] {
				t.Fatalf("%s: %s result %d = %+v, want %+v", what, w.ModelName, k, g.Results[k], w.Results[k])
			}
		}
	}
	t.Fatalf("%s: reports differ", what)
}

// zoo returns the 142-question benchmark, its challenge collection and
// the 12 Table II models.
func zoo(t *testing.T) (*dataset.Benchmark, *dataset.Benchmark, []eval.Model) {
	t.Helper()
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	models := vlm.NewZoo(b).EvalModels()
	if len(models) != 12 {
		t.Fatalf("zoo has %d models, want the 12 Table II rows", len(models))
	}
	return b, b.Challenge(), models
}

// gridReports runs a static grid at the given worker count.
func gridReports(t *testing.T, workers int, opts eval.InferenceOptions, models []eval.Model, b *dataset.Benchmark) []*eval.Report {
	t.Helper()
	reps, err := eval.Runner{Workers: workers, Opts: opts}.EvaluateAllContext(context.Background(), models, b)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestVerdictMemoTableII: both Table II grids, with choices and the
// challenge collection, match judging every event.
func TestVerdictMemoTableII(t *testing.T) {
	b, challenge, models := zoo(t)
	for _, set := range []*dataset.Benchmark{b, challenge} {
		want := eval.JudgeEvery(eval.Judge{}, eval.InferenceOptions{}, models, set.Questions)
		for _, w := range verdictWorkers {
			sameReports(t, set.Name, gridReports(t, w, eval.InferenceOptions{}, models, set), want)
		}
	}
}

// freshCopies answers with a fresh copy of its model's response, so no
// response it gives shares its bytes with another model's.
type freshCopies struct{ eval.Model }

func (m freshCopies) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	return strings.Clone(m.Model.Answer(q, opts))
}

// TestVerdictMemoFreshCopies: the memo matches responses by content,
// not by pointer.
func TestVerdictMemoFreshCopies(t *testing.T) {
	b, _, zooModels := zoo(t)
	models := make([]eval.Model, len(zooModels))
	for i, m := range zooModels {
		models[i] = freshCopies{m}
	}
	want := eval.JudgeEvery(eval.Judge{}, eval.InferenceOptions{}, models, b.Questions)
	for _, w := range verdictWorkers {
		sameReports(t, "fresh copies", gridReports(t, w, eval.InferenceOptions{}, models, b), want)
	}
}

// TestVerdictMemoExtended16x: an extended fold streamed in shards of
// 100 at 16x, where each shard's questions take over the rows of the
// shard before, matches judging every event.
func TestVerdictMemoExtended16x(t *testing.T) {
	_, _, models := zoo(t)
	fold, err := core.BuildExtended("verdict-16x", 40)
	if err != nil {
		t.Fatal(err)
	}
	opts := eval.InferenceOptions{DownsampleFactor: 16}
	want := eval.JudgeEvery(eval.Judge{}, opts, models, fold.Questions)
	stream := func(yield func(dataset.Shard) error) error {
		for start := 0; start < fold.Len(); start += 100 {
			sh := dataset.Shard{Start: start, Questions: fold.Questions[start:min(start+100, fold.Len())], Total: fold.Len()}
			if err := yield(sh); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range verdictWorkers {
		got := make([]*eval.Report, len(models))
		for i := range got {
			got[i] = &eval.Report{}
		}
		if err := (eval.Runner{Workers: w, Opts: opts}).EvaluateShardsContext(context.Background(), models, stream, got); err != nil {
			t.Fatal(err)
		}
		sameReports(t, "extended 16x", got, want)
	}
}

// TestVerdictWorkCount counts the verdicts a Table II sweep computes.
// Serially the memo judges each distinct (question, response) pair
// exactly once: 661 of the 1,704 events with choices and 400 of the
// 1,704 on the challenge collection. With more workers two of them may
// both miss on a pair one of them is still judging, so the count may
// rise, but never above one per event, and the reports stay the same.
func TestVerdictWorkCount(t *testing.T) {
	b, challenge, models := zoo(t)
	const distinct, events = 1061, 3408
	var serial [2][]*eval.Report
	for _, w := range verdictWorkers {
		var reps [2][]*eval.Report
		n := eval.CountJudged(func() {
			for i, set := range []*dataset.Benchmark{b, challenge} {
				reps[i] = gridReports(t, w, eval.InferenceOptions{}, models, set)
			}
		})
		t.Logf("workers %d: %d verdicts for %d events", w, n, events)
		if w == 1 {
			if n != distinct {
				t.Errorf("serial sweep judged %d times, want %d: once per distinct pair", n, distinct)
			}
			serial = reps
			continue
		}
		if n < distinct || n > events {
			t.Errorf("workers %d: judged %d times, want within [%d, %d]", w, n, distinct, events)
		}
		for i := range reps {
			sameReports(t, "parallel sweep", reps[i], serial[i])
		}
	}
}
