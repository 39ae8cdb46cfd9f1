//go:build !race

// Allocation pins for the perception stage and the answer path. The race detector
// instruments allocations, so this runs only in the plain test pass.

package vlm

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
)

// TestPerceivesZeroAlloc pins the 16x perception stage — the §IV-B
// resolution runs' per-(model, question) work — at 0 allocs.
func TestPerceivesZeroAlloc(t *testing.T) {
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	var qs []*dataset.Question
	for _, q := range b.Questions {
		if q.Visual != nil && len(q.Visual.CriticalElements()) > 0 {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		t.Fatal("no question with critical scene elements")
	}
	sink := 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range qs {
			if m.perceives(q, 16) {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("16x perceives allocates %.1f times per benchmark sweep; want 0", allocs)
	}
	_ = sink
}

// TestAnswerAllocsAtMostResponse pins the answer path at no more than
// one allocation per call — the response string itself — over the
// Table II benchmark at full resolution and at the §IV-B 16x factor.
// Assembling the text prompt on this path would fail it.
func TestAnswerAllocsAtMostResponse(t *testing.T) {
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	for _, factor := range []int{1, 16} {
		opts := eval.InferenceOptions{DownsampleFactor: factor}
		sink := 0
		allocs := testing.AllocsPerRun(10, func() {
			for _, q := range b.Questions {
				sink += len(m.Answer(q, opts))
			}
		})
		if per := allocs / float64(b.Len()); per > 1 {
			t.Errorf("factor %d: Answer allocates %.2f times per call; want at most 1 (its response)", factor, per)
		}
		_ = sink
	}
}
