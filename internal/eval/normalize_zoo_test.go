package eval_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/vlm"
)

// TestAppendNormalizedMatchesRefOnZoo runs the kernel and its oracle
// over every response the 12 Table II models give on the 142 questions
// and on the challenge collection, at full resolution and at 16x.
func TestAppendNormalizedMatchesRefOnZoo(t *testing.T) {
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	models := vlm.NewZoo(b).EvalModels()
	if len(models) != 12 {
		t.Fatalf("zoo has %d models, want the 12 Table II rows", len(models))
	}
	dst := []byte("prefix ")
	for _, set := range []*dataset.Benchmark{b, b.Challenge()} {
		for _, factor := range []int{1, 16} {
			opts := eval.InferenceOptions{DownsampleFactor: factor}
			for _, m := range models {
				for _, q := range set.Questions {
					resp := m.Answer(q, opts)
					got := eval.AppendNormalized(dst[:len(dst):len(dst)], resp)
					if want := eval.AppendNormalizedRef(dst[:len(dst):len(dst)], resp); !bytes.Equal(got, want) {
						t.Fatalf("%s on %s: appendNormalized(%q) = %q, want %q", m.Name(), q.ID, resp, got, want)
					}
				}
			}
		}
	}
}
