//go:build !race

// Allocation pin for the serve hot path of DESIGN.md §12. The race
// detector instruments allocations, so this runs only in the plain test
// pass; the race pass still exercises the same code through the
// functional tests.

package serve

import "testing"

// TestAppendEventZeroAlloc pins appendEvent at zero allocations per
// event once the log has room: offsets presized by begin, bytes
// pre-grown, and no reader waiting on the notify channel. The events
// carry every field, the adaptive ability pointers and stop reason
// included, and strings that take each escape path.
func TestAppendEventZeroAlloc(t *testing.T) {
	const runs = 200
	ability, se := -0.5959140735721916, 1e-7
	events := []RunEvent{
		{Model: "GPT4o", QuestionID: "d01", Category: "Digital", Type: "MC", Response: "b) F = A + B + C", Correct: true},
		{Model: "LLaVA-7b", QuestionID: "xp-srv-adaptive-00", Category: "Physical", Type: "SA",
			Response: "<6.58> & \"units\"\n\x01\xff\u2028", Ability: &ability, AbilitySE: &se, StopReason: "budget"},
	}
	for _, proto := range events {
		r := &run{notify: make(chan struct{})}
		r.begin(1, runs+1) // AllocsPerRun makes one warm-up call
		r.lines = make([]byte, 0, (runs+1)*512)
		allocs := testing.AllocsPerRun(runs, func() {
			ev := proto
			r.appendEvent(&ev)
		})
		if allocs != 0 {
			t.Errorf("appendEvent(%s): %v allocs/event, want 0", proto.Model, allocs)
		}
		if len(r.ends) != runs+1 {
			t.Fatalf("logged %d events, want %d", len(r.ends), runs+1)
		}
	}
}
