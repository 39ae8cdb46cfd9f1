//go:build !race

// Allocation pin for the perception stage. The race detector
// instruments allocations, so this runs only in the plain test pass.

package vlm

import (
	"testing"

	"repro/internal/dataset"
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
