package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/dataset"
)

// sliceStream cuts a benchmark into shards of shardSize, mimicking the
// canonical producers (StreamExtended, StreamPack) without linking the
// discipline registry into this test binary.
func sliceStream(b *dataset.Benchmark, shardSize int) func(func(dataset.Shard) error) error {
	return func(yield func(dataset.Shard) error) error {
		idx := 0
		for start := 0; start < len(b.Questions); start += shardSize {
			end := min(start+shardSize, len(b.Questions))
			sh := dataset.Shard{Index: idx, Start: start, Questions: b.Questions[start:end]}
			idx++
			if err := yield(sh); err != nil {
				return err
			}
		}
		return nil
	}
}

func streamTestModels() []Model {
	return []Model{
		fixedModel{"always", func(q *dataset.Question) string { return "c" }},
		fixedModel{"never", func(q *dataset.Question) string { return "a" }},
		fixedModel{"echo", func(q *dataset.Question) string { return q.Golden.Text }},
	}
}

// evaluateShards runs EvaluateShardsContext into fresh reports.
func evaluateShards(r Runner, models []Model, stream func(func(dataset.Shard) error) error) ([]*Report, error) {
	reps := make([]*Report, len(models))
	for i := range reps {
		reps[i] = &Report{}
	}
	err := r.EvaluateShardsContext(context.Background(), models, stream, reps)
	return reps, err
}

func reportsJSON(t *testing.T, reps []*Report) []byte {
	t.Helper()
	js, err := json.Marshal(reps)
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return js
}

// TestEvaluateShardsMatchesMonolithic is the streaming determinism
// contract: for every worker count and shard geometry, shard-at-a-time
// evaluation produces reports byte-identical to one monolithic
// EvaluateAll. Run under -race this also exercises the per-shard worker
// pools concurrently.
func TestEvaluateShardsMatchesMonolithic(t *testing.T) {
	b := testBenchmark(23)
	models := streamTestModels()
	mono := reportsJSON(t, Runner{}.EvaluateAll(models, b))
	for _, workers := range []int{1, 2, 4, 8} {
		r := Runner{Workers: workers}
		for _, shardSize := range []int{1, 3, 7, 23, 50} {
			reps, err := evaluateShards(r, models, sliceStream(b, shardSize))
			if err != nil {
				t.Fatalf("workers=%d shard=%d: %v", workers, shardSize, err)
			}
			if got := reportsJSON(t, reps); string(got) != string(mono) {
				t.Errorf("workers=%d shard=%d: streaming reports differ from monolithic", workers, shardSize)
			}
		}
	}
}

// TestEvaluateShardsInto checks buffer reuse semantics: caller-retained
// reports are refilled in place across runs.
func TestEvaluateShardsInto(t *testing.T) {
	b := testBenchmark(10)
	models := streamTestModels()
	reports := make([]*Report, len(models))
	for i := range reports {
		reports[i] = &Report{Results: make([]QuestionResult, 0, len(b.Questions))}
	}
	for run := 0; run < 2; run++ {
		if err := (Runner{}).EvaluateShardsContext(context.Background(), models, sliceStream(b, 4), reports); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, rep := range reports {
			if len(rep.Results) != len(b.Questions) {
				t.Fatalf("run %d model %d: %d results", run, i, len(rep.Results))
			}
		}
	}
	if got := reportsJSON(t, reports); string(got) != string(reportsJSON(t, Runner{}.EvaluateAll(models, b))) {
		t.Error("refilled reports differ from monolithic")
	}
}

func TestEvaluateShardsStopsOnStreamError(t *testing.T) {
	b := testBenchmark(10)
	sentinel := errors.New("shard source failed")
	stream := func(yield func(dataset.Shard) error) error {
		if err := yield(dataset.Shard{Questions: b.Questions[:5]}); err != nil {
			return err
		}
		return sentinel
	}
	reps, err := evaluateShards(Runner{}, streamTestModels(), stream)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	for _, rep := range reps {
		if len(rep.Results) != 5 {
			t.Errorf("model %s: %d results, want the 5 evaluated before the failure", rep.ModelName, len(rep.Results))
		}
	}
}

func TestEvaluateShardsCancellation(t *testing.T) {
	b := testBenchmark(12)
	models := streamTestModels()
	ctx, cancel := context.WithCancel(context.Background())
	shards := 0
	stream := func(yield func(dataset.Shard) error) error {
		for start := 0; start < len(b.Questions); start += 4 {
			shards++
			if shards == 2 {
				cancel() // takes effect at the next shard boundary
			}
			if err := yield(dataset.Shard{Index: shards - 1, Start: start, Questions: b.Questions[start : start+4]}); err != nil {
				return err
			}
		}
		return nil
	}
	reports := make([]*Report, len(models))
	for i := range reports {
		reports[i] = &Report{}
	}
	err := (Runner{}).EvaluateShardsContext(ctx, models, stream, reports)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Shard 1 completed, shard 2 was cancelled mid-flight or before
	// starting; every report must hold a clean prefix of question order.
	for _, rep := range reports {
		for i, res := range rep.Results {
			if want := fmt.Sprintf("t%02d", i); res.QuestionID != want {
				t.Fatalf("model %s result %d is %s, want %s (not a prefix)", rep.ModelName, i, res.QuestionID, want)
			}
		}
	}
}

func TestEvaluateShardsArgErrors(t *testing.T) {
	models := streamTestModels()
	if err := (Runner{}).EvaluateShardsContext(context.Background(), models, nil, make([]*Report, len(models))); err == nil {
		t.Error("nil stream accepted")
	}
	if err := (Runner{}).EvaluateShardsContext(context.Background(), models, sliceStream(testBenchmark(2), 1), make([]*Report, 1)); err == nil {
		t.Error("mismatched report count accepted")
	}
}

// sizedStream cuts b into consecutive shards of the given sizes, each
// carrying total as its Total (0: a stream that does not know its
// fold's size, like StreamPack).
func sizedStream(b *dataset.Benchmark, total int, sizes ...int) func(func(dataset.Shard) error) error {
	return func(yield func(dataset.Shard) error) error {
		start := 0
		for idx, n := range sizes {
			sh := dataset.Shard{Index: idx, Start: start, Questions: b.Questions[start : start+n], Total: total}
			if err := yield(sh); err != nil {
				return err
			}
			start += n
		}
		return nil
	}
}

// growSizes makes the call's shared reorder ring grow between shards
// (7 then 40 questions), shrink its window (3) and reuse the larger
// ring (40).
var growSizes = []int{7, 40, 3, 40}

// TestEvaluateShardsSharedRing: the shards of one call share a reorder
// ring that grows, shrinks its window and is reset between them, and
// the reports stay byte-identical to a monolithic EvaluateAll whether
// or not the stream knows its fold's size.
func TestEvaluateShardsSharedRing(t *testing.T) {
	b := testBenchmark(90)
	models := streamTestModels()
	mono := reportsJSON(t, Runner{}.EvaluateAll(models, b))
	for _, workers := range []int{1, 2, 4, 8} {
		for _, total := range []int{0, len(b.Questions)} {
			reps, err := evaluateShards(Runner{Workers: workers}, models, sizedStream(b, total, growSizes...))
			if err != nil {
				t.Fatalf("workers=%d total=%d: %v", workers, total, err)
			}
			if got := reportsJSON(t, reps); string(got) != string(mono) {
				t.Errorf("workers=%d total=%d: reports differ from monolithic", workers, total)
			}
		}
	}
}

// TestEvaluateShardsCancelInThirdShard cancels from the observer inside
// the third shard, after the shared ring has grown and shrunk its
// window: shards 1 and 2 are complete and shard 3 contributes exactly
// the model-major prefix observed.
func TestEvaluateShardsCancelInThirdShard(t *testing.T) {
	b := testBenchmark(90)
	models := streamTestModels()
	mono := Runner{}.EvaluateAll(models, b)
	const before, inThird = 7 + 40, 4 // questions in shards 1-2; events seen in shard 3
	cut := before*len(models) + inThird
	for _, workers := range []int{1, 2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		r := Runner{Workers: workers, Observer: ObserverFunc(func(Event) {
			if seen++; seen == cut {
				cancel()
			}
		})}
		reps := make([]*Report, len(models))
		for i := range reps {
			reps[i] = &Report{}
		}
		err := r.EvaluateShardsContext(ctx, models, sizedStream(b, len(b.Questions), growSizes...), reps)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if seen != cut {
			t.Errorf("workers=%d: observed %d events, want %d", workers, seen, cut)
		}
		for m, rep := range reps {
			n := before + min(max(inThird-m*growSizes[2], 0), growSizes[2])
			want := &Report{ModelName: rep.ModelName, Results: mono[m].Results[:n]}
			if string(reportsJSON(t, []*Report{rep})) != string(reportsJSON(t, []*Report{want})) {
				t.Errorf("workers=%d model %s: %d results, want the %d-result prefix", workers, rep.ModelName, len(rep.Results), n)
			}
		}
	}
}

// TestEvaluateShardsSizesResultsOnce: when the stream knows its fold's
// size, every report's Results has exactly that capacity from the
// first event on, in one backing array for the whole call.
func TestEvaluateShardsSizesResultsOnce(t *testing.T) {
	b := testBenchmark(90)
	models := streamTestModels()
	total := len(b.Questions)
	for _, workers := range []int{1, 2, 4, 8} {
		reps := make([]*Report, len(models))
		first := make([]*QuestionResult, len(models))
		for i := range reps {
			reps[i] = &Report{}
		}
		r := Runner{Workers: workers, Observer: ObserverFunc(func(Event) {
			for i, rep := range reps {
				if cap(rep.Results) != total {
					t.Fatalf("workers=%d model %d: cap %d during the run, want %d", workers, i, cap(rep.Results), total)
				}
				if first[i] == nil {
					first[i] = unsafe.SliceData(rep.Results)
				} else if unsafe.SliceData(rep.Results) != first[i] {
					t.Fatalf("workers=%d model %d: Results reallocated during the run", workers, i)
				}
			}
		})}
		if err := r.EvaluateShardsContext(context.Background(), models, sizedStream(b, total, growSizes...), reps); err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			if len(rep.Results) != total || cap(rep.Results) != total || unsafe.SliceData(rep.Results) != first[i] {
				t.Errorf("workers=%d model %d: len %d cap %d, want one %d-result array", workers, i, len(rep.Results), cap(rep.Results), total)
			}
		}
	}
}

// TestReorderRingTake: a borrowed ring grows only when asked for more
// slots than it holds, and every slot it hands out is free for lap 0.
func TestReorderRingTake(t *testing.T) {
	var r reorderRing
	dirty := func(s []slot) {
		for i := range s {
			s[i].state.Store(3<<lapShift | slotReady)
		}
	}
	a := r.take(21)
	dirty(a)
	b := r.take(120)
	if len(b) != 120 || &b[0] == &a[0] {
		t.Fatalf("take(120) after take(21): len %d, same array %v; want a new 120-slot ring", len(b), &b[0] == &a[0])
	}
	dirty(b)
	for _, n := range []int{9, 120} {
		c := r.take(n)
		if len(c) != n || &c[0] != &b[0] {
			t.Fatalf("take(%d): len %d, same array %v; want the 120-slot ring reused", n, len(c), &c[0] == &b[0])
		}
		for i := range c {
			if v := c[i].state.Load(); v != 0 {
				t.Fatalf("take(%d): slot %d state %#x, want 0 (lap 0, free)", n, i, v)
			}
		}
		dirty(c)
	}
	var none *reorderRing
	if len(none.take(5)) != 5 {
		t.Error("a nil ring must allocate one of its own")
	}
}
