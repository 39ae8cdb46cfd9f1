package eval

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dataset"
)

// TestSlotSize pins the reorder slot at its state word plus what a
// worker produces (model, question, response, verdict): a field added
// back to the slot is paid on every parked event, so it must show here.
func TestSlotSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the slot layout is pinned for 64-bit targets")
	}
	var s slot
	if got := unsafe.Sizeof(s); got != 56 {
		t.Errorf("unsafe.Sizeof(slot{}) = %d, want 56", got)
	}
}

// stamp sets every field of ev that only delivery may set, as a
// scheduler or stage that strays outside its own fields would.
func stamp(ev *Event, by string) {
	ev.At = time.Unix(1, 0)
	ev.Adaptive = true
	ev.Ability = -1
	ev.AbilitySE = -1
	ev.StopReason = by
}

// strayStage answers from the event's model and judges with the
// equivalence judge, and stamps the delivery-only fields after each.
type strayStage struct{}

func (strayStage) Infer(_ context.Context, ev *Event) {
	ev.Response = ev.Model.Answer(ev.Question, InferenceOptions{})
	stamp(ev, "infer")
}

func (strayStage) Judge(_ context.Context, ev *Event) {
	ev.Correct = Judge{}.Correct(ev.Question, ev.Response)
	stamp(ev, "judge")
}

// straySource is a static grid whose events come stamped.
type straySource struct{ gridSource }

func (s straySource) Event(i int) Event {
	ev := s.gridSource.Event(i)
	stamp(&ev, "source")
	return ev
}

// strayScheduler issues a grid's events stamped, as a dynamic
// scheduler. Record notes any delivery-only field that reached it, then
// annotates even Seqs as an adaptive scheduler would.
type strayScheduler struct {
	mu    sync.Mutex
	grid  gridSource
	next  int
	stray []int // Seqs whose event reached Record with a stamp on it
}

func (s *strayScheduler) Next() (Event, ScheduleState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == s.grid.Len() {
		return Event{}, ScheduleDone
	}
	ev := s.grid.Event(s.next)
	s.next++
	stamp(&ev, "next")
	return ev, ScheduleReady
}

func (s *strayScheduler) Record(ev *Event) {
	if !ev.At.IsZero() || ev.Adaptive || ev.Ability != 0 || ev.AbilitySE != 0 || ev.StopReason != "" {
		s.stray = append(s.stray, ev.Seq)
	}
	annotate(ev)
}

// annotate is strayScheduler's Record annotation.
func annotate(ev *Event) {
	if ev.Seq%2 == 0 {
		ev.Adaptive = true
		ev.Ability = float64(ev.Seq)
		ev.AbilitySE = 0.5
		ev.StopReason = "even"
	}
}

// eventSink renders each consumed event with eventLine.
type eventSink struct{ lines []string }

func (s *eventSink) Consume(ev Event) { s.lines = append(s.lines, eventLine(ev)) }

// eventLine renders every field of a delivered event.
func eventLine(ev Event) string {
	return fmt.Sprintf("%d %s %s %q %v at=%d %v %v %v %q", ev.Seq, ev.Model.Name(), ev.Question.ID,
		ev.Response, ev.Correct, ev.At.UnixNano(), ev.Adaptive, ev.Ability, ev.AbilitySE, ev.StopReason)
}

// TestDeliveredEventFields: whatever a scheduler's Next, a Source or
// the stages set on the delivery-only fields (At, Adaptive, Ability,
// AbilitySE, StopReason), Record receives the event without them, and
// the sink and observer see exactly what Record and the clock set on
// top of the worker's output — static and dynamic runs, with and
// without an observer, for any worker count.
func TestDeliveredEventFields(t *testing.T) {
	b := testBenchmark(50)
	grid := gridSource{models: streamTestModels(), questions: b.Questions}
	fixed := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	for _, dynamic := range []bool{false, true} {
		for _, observe := range []bool{false, true} {
			var want []string
			for i := 0; i < grid.Len(); i++ {
				ev := grid.Event(i)
				ev.Response = ev.Model.Answer(ev.Question, InferenceOptions{})
				ev.Correct = Judge{}.Correct(ev.Question, ev.Response)
				if dynamic {
					annotate(&ev)
				}
				if observe {
					ev.At = fixed
				}
				want = append(want, eventLine(ev))
			}
			for _, workers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("dynamic=%v observer=%v workers=%d", dynamic, observe, workers)
				sink, obs := &eventSink{}, &eventSink{}
				p := &Pipeline{
					Source:  straySource{grid},
					Infer:   strayStage{},
					Judge:   strayStage{},
					Sink:    sink,
					Workers: workers,
					Clock:   func() time.Time { return fixed },
				}
				sched := &strayScheduler{grid: grid}
				if dynamic {
					p.Scheduler = sched
				}
				if observe {
					p.Observer = ObserverFunc(obs.Consume)
				}
				if err := p.Run(context.Background()); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(sched.stray) > 0 {
					t.Errorf("%s: Record saw delivery-only fields set on Seqs %v", name, sched.stray)
				}
				seen := map[string][]string{"sink": sink.lines}
				if observe {
					seen["observer"] = obs.lines
				}
				for who, got := range seen {
					if len(got) != len(want) {
						t.Errorf("%s: %s saw %d events, want %d", name, who, len(got), len(want))
						continue
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s: %s event %d\ngot:  %s\nwant: %s", name, who, i, got[i], want[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestEvaluateShardsStaleSlots: after a large first shard, each later
// shard's events land in ring slots still holding the first shard's
// events — other models, other questions, other responses and the
// opposite verdicts — and both the reports and every observed event
// stay what a monolithic run gives.
func TestEvaluateShardsStaleSlots(t *testing.T) {
	b := testBenchmark(90)
	sizes := []int{60, 5, 25}
	pos := make(map[*dataset.Question]int, len(b.Questions))
	for i, q := range b.Questions {
		pos[q] = i
	}
	pick := func(early, late string) func(*dataset.Question) string {
		return func(q *dataset.Question) string {
			if pos[q] < sizes[0] {
				return early
			}
			return late
		}
	}
	models := []Model{
		fixedModel{"flip", pick("c", "")},
		fixedModel{"flop", pick("a", "right")},
		fixedModel{"echo", func(q *dataset.Question) string { return q.Golden.Text }},
	}
	mono := Runner{}.EvaluateAll(models, b)
	monoJSON := reportsJSON(t, mono)
	// Each shard's events, model-major with Seqs from 0, as the
	// monolithic reports have them.
	var want []string
	start := 0
	for _, n := range sizes {
		for m, rep := range mono {
			for k := 0; k < n; k++ {
				r := rep.Results[start+k]
				want = append(want, fmt.Sprintf("%d %s %s %q %v", m*n+k, rep.ModelName, r.QuestionID, r.Response, r.Correct))
			}
		}
		start += n
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, total := range []int{0, len(b.Questions)} {
			var got []string
			r := Runner{Workers: workers, Observer: ObserverFunc(func(ev Event) {
				got = append(got, fmt.Sprintf("%d %s %s %q %v", ev.Seq, ev.Model.Name(), ev.Question.ID, ev.Response, ev.Correct))
			})}
			reps := make([]*Report, len(models))
			for i := range reps {
				reps[i] = &Report{}
			}
			if err := r.EvaluateShardsContext(context.Background(), models, sizedStream(b, total, sizes...), reps); err != nil {
				t.Fatalf("workers=%d total=%d: %v", workers, total, err)
			}
			if string(reportsJSON(t, reps)) != string(monoJSON) {
				t.Errorf("workers=%d total=%d: reports differ from monolithic", workers, total)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d total=%d: observed %d events, want %d", workers, total, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("workers=%d total=%d: event %d\ngot:  %s\nwant: %s", workers, total, i, got[i], want[i])
					break
				}
			}
		}
	}
}
