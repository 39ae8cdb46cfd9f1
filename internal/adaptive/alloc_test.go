//go:build !race

// Allocation pin for the tournament's serial feedback path. The race
// detector instruments allocations, so this runs only in the plain
// test pass; the race pass still exercises the same code through the
// functional tests.

package adaptive

import (
	"testing"

	"repro/internal/eval"
)

// TestTournamentSteadyStateZeroAlloc pins a warmed Next+Record cycle —
// claim, posterior update, stopping rules, class-grouped selection and
// the ready ring — at 0 allocs/op.
func TestTournamentSteadyStateZeroAlloc(t *testing.T) {
	_, bank := testBank(t, 400)
	models := []eval.Model{skillModel{"a", 0.5}, skillModel{"b", 0.5}}
	// Z and SEStop are out of reach so no seat stops within the run.
	trn, err := NewTournament(models, bank, Config{Seed: "alloc", Z: 1e9, SEStop: 1e-9, TotalBudget: 800})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		ev, st := trn.Next()
		if st != eval.ScheduleReady {
			t.Fatalf("schedule state %v, want ready", st)
		}
		ev.Correct = ev.Seq%3 != 0
		trn.Record(&ev)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Next+Record: %v allocs/op, want 0", allocs)
	}
}
