package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestSourceSchedulerCoversSourceOnce: the static wrapper hands out each
// source index exactly once, then reports done forever.
func TestSourceSchedulerCoversSourceOnce(t *testing.T) {
	b := testBenchmark(9)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	s := newSourceScheduler(gridSource{models: []Model{m}, questions: b.Questions})
	seen := make(map[int]bool)
	for {
		ev, st := s.Next()
		if st == ScheduleDone {
			break
		}
		if st != ScheduleReady {
			t.Fatalf("static scheduler returned state %v", st)
		}
		if seen[ev.Seq] {
			t.Fatalf("seq %d handed out twice", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if len(seen) != b.Len() {
		t.Fatalf("claimed %d events, want %d", len(seen), b.Len())
	}
	if _, st := s.Next(); st != ScheduleDone {
		t.Fatal("drained scheduler not done")
	}
	if s.SizeHint() != b.Len() {
		t.Fatalf("SizeHint %d, want %d", s.SizeHint(), b.Len())
	}
}

// chainScheduler issues questions strictly one at a time: the next item
// is only released inside Record. With more workers than ready items
// this forces the ScheduleWait/park/wake path that static sources never
// exercise.
type chainScheduler struct {
	mu          sync.Mutex
	model       Model
	questions   []*dataset.Question
	issued      int
	outstanding bool
	recorded    []int // Seq values in Record order
}

func (c *chainScheduler) Next() (Event, ScheduleState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.issued >= len(c.questions) && !c.outstanding {
		return Event{}, ScheduleDone
	}
	if c.outstanding || c.issued >= len(c.questions) {
		return Event{}, ScheduleWait
	}
	ev := Event{Seq: c.issued, Model: c.model, Question: c.questions[c.issued]}
	c.issued++
	c.outstanding = true
	return ev, ScheduleReady
}

func (c *chainScheduler) Record(ev *Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outstanding = false
	c.recorded = append(c.recorded, ev.Seq)
}

// TestDynamicSchedulerSequentialChain drives the dynamic seam with a
// one-at-a-time chain under a large worker pool: every question must be
// delivered, Record must run strictly in Seq order, and idle workers
// must park on the gate and wake instead of spinning or deadlocking.
func TestDynamicSchedulerSequentialChain(t *testing.T) {
	b := testBenchmark(25)
	m := fixedModel{"m", func(q *dataset.Question) string {
		if q.ID[len(q.ID)-1]%2 == 0 {
			return "c"
		}
		return "a"
	}}
	for _, workers := range []int{1, 8} {
		sched := &chainScheduler{model: m, questions: b.Questions}
		rep := &Report{ModelName: m.Name()}
		p := &Pipeline{
			Scheduler: sched,
			Infer:     modelInference{},
			Judge:     judgeStage{judge: Judge{}},
			Sink:      &reportSink{reports: []*Report{rep}},
			Workers:   workers,
		}
		if err := p.Run(context.Background()); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.Results) != b.Len() {
			t.Fatalf("workers=%d: delivered %d results, want %d", workers, len(rep.Results), b.Len())
		}
		if len(sched.recorded) != b.Len() {
			t.Fatalf("workers=%d: recorded %d outcomes, want %d", workers, len(sched.recorded), b.Len())
		}
		for i, seq := range sched.recorded {
			if seq != i {
				t.Fatalf("workers=%d: Record order %v not strictly Seq order", workers, sched.recorded)
			}
		}
		for i, res := range rep.Results {
			if res.QuestionID != b.Questions[i].ID {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, res.QuestionID, b.Questions[i].ID)
			}
		}
	}
}

// TestSchedulerWinsOverSource: when both seams are set, the dynamic
// scheduler drives the run and the static source is ignored.
func TestSchedulerWinsOverSource(t *testing.T) {
	b := testBenchmark(10)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	sched := &chainScheduler{model: m, questions: b.Questions[:3]}
	rep := &Report{ModelName: m.Name()}
	p := &Pipeline{
		Scheduler: sched,
		Source:    gridSource{models: []Model{m}, questions: b.Questions},
		Infer:     modelInference{},
		Judge:     judgeStage{judge: Judge{}},
		Sink:      &reportSink{reports: []*Report{rep}},
		Workers:   4,
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("delivered %d results, want the scheduler's 3 (source must be ignored)", len(rep.Results))
	}
}

// seqScheduler issues one event per entry of seqs, with that Seq, and
// is then done — or, with wait set, returns ScheduleWait forever: a
// scheduler that can break the consecutive-Seq and Wait contracts on
// purpose.
type seqScheduler struct {
	mu        sync.Mutex
	model     Model
	questions []*dataset.Question
	seqs      []int
	wait      bool
	issued    int
}

func (s *seqScheduler) Next() (Event, ScheduleState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.issued >= len(s.seqs) {
		if s.wait {
			return Event{}, ScheduleWait
		}
		return Event{}, ScheduleDone
	}
	ev := Event{Seq: s.seqs[s.issued], Model: s.model, Question: s.questions[s.issued]}
	s.issued++
	return ev, ScheduleReady
}

func (s *seqScheduler) Record(*Event) {}

// TestSchedulerSeqContractBreach: a skipped or repeated Seq, or a
// ScheduleWait with nothing outstanding (always, or after skipping the
// Seq it waits on), fails the run with an error instead of returning
// nil with events silently lost or parking every worker forever.
func TestSchedulerSeqContractBreach(t *testing.T) {
	b := testBenchmark(5)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	cases := []struct {
		name    string
		seqs    []int
		wait    bool
		want    string
		results int // delivered events; -1 when it depends on timing
	}{
		{"gap", []int{0, 2, 3, 4, 5}, false, "skipped Seq 1", 1},
		{"duplicate", []int{0, 1, 1, 2, 3}, false, "Seq 1 twice", -1},
		{"always-wait", nil, true, "no outstanding events after 0 delivered", 0},
		{"skip-then-wait", []int{0, 2, 3}, true, "skipped Seq 1", 1},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				rep := &Report{ModelName: m.Name()}
				p := &Pipeline{
					Scheduler: &seqScheduler{model: m, questions: b.Questions, seqs: c.seqs, wait: c.wait},
					Infer:     modelInference{},
					Judge:     judgeStage{judge: Judge{}},
					Sink:      &reportSink{reports: []*Report{rep}},
					Workers:   workers,
				}
				done := make(chan error, 1)
				go func() { done <- p.Run(context.Background()) }()
				select {
				case err := <-done:
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("err = %v, want it to contain %q", err, c.want)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Run still parked after 10s")
				}
				if c.results >= 0 && len(rep.Results) != c.results {
					t.Errorf("delivered %d results, want %d", len(rep.Results), c.results)
				}
			})
		}
	}
}

// TestSchedGate: a pulse with no one armed is a no-op; an armed waiter
// is released by the next pulse; arming twice reuses the same channel
// until a pulse consumes it.
func TestSchedGate(t *testing.T) {
	g := &schedGate{}
	g.pulse() // nothing armed: must not panic or leak
	ch1 := g.arm()
	ch2 := g.arm()
	if ch1 != ch2 {
		t.Fatal("two arms before a pulse returned different channels")
	}
	select {
	case <-ch1:
		t.Fatal("gate released before pulse")
	default:
	}
	g.pulse()
	select {
	case <-ch1:
	default:
		t.Fatal("pulse did not release the armed channel")
	}
	// A fresh arm after the pulse gets a new, unreleased channel.
	ch3 := g.arm()
	select {
	case <-ch3:
		t.Fatal("stale release leaked into the new arm cycle")
	default:
	}
	g.pulse()
	<-ch3
}

// TestEvaluateAdaptiveValidation covers the entry-point error paths.
// Static and adaptive runs refuse two models of one name with the same
// error, since the report sink files events by name.
func TestEvaluateAdaptiveValidation(t *testing.T) {
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	if _, err := (Runner{}).EvaluateAdaptiveContext(context.Background(), []Model{m}, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	dup := []Model{m, fixedModel{"n", m.fn}, m}
	_, static := (Runner{}).EvaluateAllContext(context.Background(), dup, testBenchmark(3))
	_, adaptive := (Runner{}).EvaluateAdaptiveContext(context.Background(), dup, &chainScheduler{})
	const want = `eval: duplicate model "m"`
	for i, err := range []error{static, adaptive} {
		if err == nil || err.Error() != want {
			t.Errorf("%s run: err = %v, want %s", []string{"static", "adaptive"}[i], err, want)
		}
	}
	reports, err := (Runner{}).EvaluateAdaptiveContext(context.Background(), nil, &chainScheduler{})
	if err != nil || len(reports) != 0 {
		t.Errorf("empty model list: reports %v err %v", reports, err)
	}
}
