//go:build !race

// Allocation budgets for question generation. The race detector
// instruments allocations, so these run only in the plain test pass;
// the race pass still exercises the generators through the functional
// tests.

package core

import (
	"testing"

	"repro/internal/dataset"
)

// TestExtraAtAllocBudgets pins the mean allocations of ExtraAt plus
// Validate per question, per discipline, over one genWindow of the
// fold BenchmarkExtraAt times. Generation is most of what a streamed
// extended fold allocates, so a budget overrun shows up here before it
// shows up as stream_16x allocs_per_op.
func TestExtraAtAllocBudgets(t *testing.T) {
	budgets := map[dataset.Category]float64{
		dataset.Digital:      63,
		dataset.Analog:       27,
		dataset.Architecture: 28,
		dataset.Manufacture:  21,
		dataset.Physical:     29,
	}
	gens, err := registeredGenerators()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		allocs := testing.AllocsPerRun(3, func() {
			for i := 0; i < genWindow; i++ {
				if err := g.ExtraAt("bench-0", i).Validate(); err != nil {
					t.Fatal(err)
				}
			}
		}) / genWindow
		if allocs > budgets[g.Category] {
			t.Errorf("%s: %.1f allocs per question, budget %v", g.Category.Short(), allocs, budgets[g.Category])
		}
	}
}
