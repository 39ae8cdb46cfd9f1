package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// These tests close ISSUE 7's acceptance loop: a large extended fold
// evaluated shard-at-a-time inside a fixed SceneCache byte envelope
// must produce reports byte-identical to the monolithic build.

func evalReportsJSON(t *testing.T, reps []*eval.Report) []byte {
	t.Helper()
	js, err := json.Marshal(reps)
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return js
}

// streamEvalEnvelope runs the streaming-vs-monolithic comparison for a
// fold of perCategory questions per discipline under the given
// SceneCache budget, returning peak cache bytes observed.
func streamEvalEnvelope(t *testing.T, seed string, perCategory, shardSize int, budget int64) int64 {
	t.Helper()
	// The simulated models answer through the package-level Default
	// cache, so the envelope is configured (and asserted) on it.
	visual.Default.Reset()
	visual.Default.SetBudget(budget)
	defer func() {
		visual.Default.SetBudget(0)
		visual.Default.Reset()
	}()

	mono := collectExtended(t, seed, perCategory, shardSize)
	// Calibrate one Table II model against the fold; decisions are keyed
	// by question ID, so the streaming pass (fresh question values, same
	// IDs) sees identical behaviour.
	models := vlm.NewZoo(mono).EvalModels()[:1]
	r := eval.Runner{Workers: 4, Opts: eval.InferenceOptions{DownsampleFactor: 8}}

	monoJSON := evalReportsJSON(t, r.EvaluateAll(models, mono))
	visual.Default.Reset() // isolate the streaming pass's cache pressure

	streamed := []*eval.Report{{}}
	err := r.EvaluateShardsContext(context.Background(), models, func(yield func(dataset.Shard) error) error {
		return StreamExtended(seed, perCategory, shardSize, yield)
	}, streamed)
	if err != nil {
		t.Fatalf("EvaluateShardsContext: %v", err)
	}
	if got := evalReportsJSON(t, streamed); string(got) != string(monoJSON) {
		t.Error("streaming reports differ from monolithic evaluation")
	}
	st := visual.Default.Stats()
	if st.PeakBytes > budget {
		t.Errorf("peak cache bytes %d exceed budget %d", st.PeakBytes, budget)
	}
	if st.Hits+st.Misses != 0 {
		t.Errorf("streamed evaluation made %d scene-cache lookups; it must hold no per-scene state (stats %+v)",
			st.Hits+st.Misses, st)
	}
	return st.PeakBytes
}

// TestStreamingEvalFixedMemoryEnvelope is the small always-on version:
// correctness of the envelope machinery at a size every test run can
// afford.
func TestStreamingEvalFixedMemoryEnvelope(t *testing.T) {
	streamEvalEnvelope(t, "envelope", 200, 64, 64<<10)
}

// TestStreamingEval100kEnvelope is the acceptance-scale run: a
// 100k-question extended fold evaluates via the streaming path with
// peak SceneCache bytes within the configured budget, byte-identical to
// the monolithic build. Heavy (two full 100k evaluations), so it is
// skipped in -short and under the race detector; the -race coverage of
// the streaming engine itself lives in internal/eval at workers
// 1/2/4/8.
func TestStreamingEval100kEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-question run skipped in -short")
	}
	if raceEnabled {
		t.Skip("100k-question run skipped under the race detector")
	}
	peak := streamEvalEnvelope(t, "envelope-100k", 20000, 1024, 1<<20)
	t.Logf("peak SceneCache bytes over 100k questions: %d (budget %d)", peak, 1<<20)
}

// TestEvaluateShardsKnownAndUnknownTotal: StreamExtended's shards carry
// the fold's size and a pack stream's carry none. Either way, at every
// worker count, shard-at-a-time evaluation gives reports byte-identical
// to a monolithic one; a known size gives each report exactly that
// capacity.
func TestEvaluateShardsKnownAndUnknownTotal(t *testing.T) {
	const perCategory, shardSize = 9, 7
	fold, err := BuildExtended("total", perCategory)
	if err != nil {
		t.Fatal(err)
	}
	models := vlm.NewZoo(fold).EvalModels()[:3]
	mono := evalReportsJSON(t, eval.Runner{Workers: 1}.EvaluateAll(models, fold))
	pack := packBytes(t, fold)
	streams := []struct {
		name   string
		total  int
		shards func(func(dataset.Shard) error) error
	}{
		{"StreamExtended", fold.Len(), func(yield func(dataset.Shard) error) error {
			return StreamExtended("total", perCategory, shardSize, yield)
		}},
		{"StreamPack", 0, func(yield func(dataset.Shard) error) error {
			return dataset.StreamPack(bytes.NewReader(pack), shardSize, yield)
		}},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, s := range streams {
			reps := make([]*eval.Report, len(models))
			for i := range reps {
				reps[i] = &eval.Report{}
			}
			err := eval.Runner{Workers: workers}.EvaluateShardsContext(context.Background(), models, func(yield func(dataset.Shard) error) error {
				return s.shards(func(sh dataset.Shard) error {
					if sh.Total != s.total {
						t.Errorf("%s shard %d: Total %d, want %d", s.name, sh.Index, sh.Total, s.total)
					}
					return yield(sh)
				})
			}, reps)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s.name, workers, err)
			}
			if got := evalReportsJSON(t, reps); string(got) != string(mono) {
				t.Errorf("%s workers=%d: reports differ from monolithic evaluation", s.name, workers)
			}
			for _, rep := range reps {
				if s.total > 0 && cap(rep.Results) != s.total {
					t.Errorf("%s workers=%d %s: cap %d, want %d", s.name, workers, rep.ModelName, cap(rep.Results), s.total)
				}
			}
		}
	}
}
