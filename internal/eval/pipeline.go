package eval

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
)

// This file decomposes the evaluation path into an explicit staged
// pipeline: an ItemScheduler (scheduler.go) issues per-question Events
// in a canonical order, an Inference stage fills in the model response,
// a JudgeStage scores it, and a Sink consumes completed events strictly
// in Seq order. An optional Observer sees every event right after the
// sink — in the same deterministic order — which is the hook point for
// metrics, tracing and progress reporting. Runner.run is the one place
// the Runner composes these stages, with context cancellation and
// graceful partial results.

// Event is the per-question unit of work flowing through the pipeline.
// The Source seeds Seq, Model and Question; Inference fills Response;
// JudgeStage fills Correct; the delivery layer stamps At just before
// the Sink and Observer see the event.
type Event struct {
	// Seq is the event's position in the run's canonical order: the
	// question index for single-model runs, the flattened model-major
	// (model, question) task index for grid runs.
	Seq      int
	Model    Model
	Question *dataset.Question
	Response string
	Correct  bool
	// At is the delivery timestamp from the pipeline clock seam. It is
	// observability-only: reports never contain it, so runs stay
	// byte-identical regardless of wall-clock behaviour.
	At time.Time
	// Adaptive marks events annotated by an adaptive ItemScheduler:
	// Ability/AbilitySE carry the model's posterior ability estimate
	// after this outcome, and StopReason is non-empty on the model's
	// final event ("separated", "precise", "budget", "exhausted").
	// Static sources leave all four zero; reports never contain them,
	// so the byte-identity guarantees are untouched.
	Adaptive   bool
	Ability    float64
	AbilitySE  float64
	StopReason string
	// scratch is the executing worker's judge Scratch, set by Run for the
	// Infer/Judge stages and cleared before delivery. It is owned by
	// exactly one worker goroutine (poolown discipline) and must never
	// escape into a delivered event.
	scratch *Scratch
}

// Source yields a statically known task list in canonical order.
// Event(i) must be a pure function of i so any worker may materialise
// any task. A Source is the degenerate, feedback-free case of the
// ItemScheduler seam: a Pipeline with a nil Scheduler wraps its Source
// in newSourceScheduler, the same trivial scheduler the Runner's
// static path builds for every shard.
type Source interface {
	Len() int
	Event(i int) Event
}

// Inference fills Event.Response from the event's model and question.
type Inference interface {
	Infer(ctx context.Context, ev *Event)
}

// JudgeStage fills Event.Correct from the question and response.
type JudgeStage interface {
	Judge(ctx context.Context, ev *Event)
}

// Sink consumes completed events. The pipeline calls Consume strictly
// in Seq order from one goroutine at a time, so sinks need no locking
// of their own.
type Sink interface {
	Consume(ev Event)
}

// Observer receives every event immediately after the sink, under the
// same in-order single-goroutine guarantee. Cancelling the run's
// context from inside Observe stops delivery after the current event,
// which makes observer-triggered cancellation deterministic: the
// partial report is exactly the events observed so far.
type Observer interface {
	Observe(ev Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev Event)

// Observe calls f.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// Pipeline wires the four stages plus the optional observer. Workers
// is a resolved pool size (Runner.run passes EffectiveWorkers): <= 1
// runs serially, larger values size the pool. Exactly one of Scheduler
// and Source drives the run; when both are set, Scheduler wins.
type Pipeline struct {
	// Scheduler is the dynamic task source (scheduler.go). Nil means
	// wrap Source in the trivial static scheduler.
	Scheduler ItemScheduler
	Source    Source
	Infer     Inference
	Judge     JudgeStage
	Sink      Sink
	Observer  Observer
	Workers   int
	// Clock stamps Event.At at delivery; nil uses the package clock
	// seam (clock.go). Tests pin it for reproducible timestamps.
	Clock func() time.Time
}

// Run executes the pipeline until the scheduler drains or ctx is
// cancelled, returning ctx.Err(). A scheduler that breaks its
// contract (ItemScheduler) fails the run with an error instead: a
// repeated Seq stops delivery at once, a skipped Seq is reported once
// the workers exit with events still parked behind it, and a
// ScheduleWait with nothing outstanding stops the run as soon as every
// worker is waiting.
//
// Workers pull tasks cooperatively: cancellation is checked between
// questions (a question in flight finishes), and the in-order delivery
// gate re-checks the context before every emit, so after cancel the
// sink holds a consistent prefix of the canonical order — a graceful
// partial report — and every delivered result is byte-identical to the
// full run's.
//
// Judged outcomes feed back into the scheduler from inside the reorder
// buffer, strictly in Seq order, before the sink sees them — the
// Judge→Scheduler back-edge that makes adaptive runs deterministic: the
// scheduler's state evolves along the canonical event order no matter
// how many workers race ahead of it.
func (p *Pipeline) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	clock := p.Clock
	if clock == nil {
		clock = now
	}
	sched := p.Scheduler
	if sched == nil {
		sched = newSourceScheduler(p.Source)
	}
	gate := newSchedGate()
	d := &delivery{
		pending: make(map[int]Event),
		sink:    p.Sink,
		obs:     p.Observer,
		clock:   clock,
		sched:   sched,
		gate:    gate,
	}
	nw := p.Workers
	if s, ok := sched.(schedulerSize); ok && nw > s.SizeHint() {
		nw = s.SizeHint()
	}
	if nw < 1 {
		nw = 1
	}
	// One Scratch per worker slot, checked out for the whole run: each
	// slot belongs to exactly one goroutine, so the buffers are reused
	// across every event that worker judges without locking or
	// per-event pool traffic.
	scratches := make([]*Scratch, nw)
	for i := range scratches {
		scratches[i] = getScratch()
	}
	work := func(w int) {
		for ctx.Err() == nil && !d.stopped.Load() {
			ev, st := sched.Next()
			if st == ScheduleWait {
				// Arm the gate, then re-check: a Record between the
				// first Next and arm would otherwise be a missed
				// wake-up. The static path never reaches here.
				wake := gate.arm()
				ev, st = sched.Next()
				if st == ScheduleWait {
					if d.stopped.Load() {
						// A stop's pulse may have preceded this arm;
						// nothing would wake the wait below.
						return
					}
					if gate.park(wake, nw) {
						// Nothing can ever pulse the gate: stop the
						// run and release the other waiters.
						d.stopped.Store(true)
						gate.pulse()
						return
					}
					select {
					case <-wake:
					case <-ctx.Done():
					}
					continue
				}
			}
			if st == ScheduleDone {
				return
			}
			ev.scratch = scratches[w]
			p.Infer.Infer(ctx, &ev)
			p.Judge.Judge(ctx, &ev)
			ev.scratch = nil
			d.deliver(ctx, ev)
		}
	}
	if nw == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(nw)
		for w := 0; w < nw; w++ {
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	for _, sc := range scratches {
		putScratch(sc)
	}
	return d.result(ctx)
}

// delivery is the reorder buffer between the parallel stages and the
// ordered sink: workers complete events in scheduling order, deliver
// parks them until their Seq is next, and the contiguous prefix drains
// under one mutex — which is what serialises Sink/Observer calls and
// keeps them in canonical order for any worker count.
type delivery struct {
	mu      sync.Mutex
	next    int           // lowest Seq not yet emitted
	pending map[int]Event // completed events waiting for their turn
	stopped atomic.Bool   // cancelled or broken; drop instead of emit
	breach  error         // the first Seq contract breach, if any
	sink    Sink
	obs     Observer
	clock   func() time.Time
	sched   ItemScheduler
	gate    *schedGate
}

func (d *delivery) deliver(ctx context.Context, ev Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Workers parked on ScheduleWait re-poll after every delivery
	// attempt: Record below may have issued new work, and on
	// cancellation the pulse is harmless (waiters also watch ctx).
	defer d.gate.pulse()
	if d.stopped.Load() {
		return
	}
	if _, dup := d.pending[ev.Seq]; dup || ev.Seq < d.next {
		d.breach = fmt.Errorf("eval: scheduler issued Seq %d twice", ev.Seq)
		d.stopped.Store(true)
		return
	}
	d.pending[ev.Seq] = ev
	for {
		if ctx.Err() != nil {
			// Stop emitting the moment cancellation is visible — even
			// for events already buffered — so an observer that cancels
			// during Observe cuts the report off deterministically
			// right after its event.
			d.stopped.Store(true)
			return
		}
		nxt, ok := d.pending[d.next]
		if !ok {
			return
		}
		delete(d.pending, d.next)
		d.next++
		// The scheduler hears the judged outcome first — in canonical
		// Seq order — and may annotate the event (ability, stop reason)
		// before the sink and observer see it.
		d.sched.Record(&nxt)
		nxt.At = d.clock()
		if d.sink != nil {
			d.sink.Consume(nxt)
		}
		if d.obs != nil {
			d.obs.Observe(nxt)
		}
	}
}

// result is the run's outcome once every worker has exited: a Seq
// contract breach, else ctx.Err(), else a gap — an uncancelled run
// that still holds parked events never saw the Seq they wait behind —
// else a wait that nothing outstanding could ever end.
func (d *delivery) result(ctx context.Context) error {
	if d.breach != nil {
		return d.breach
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(d.pending) > 0 {
		return fmt.Errorf("eval: scheduler skipped Seq %d; %d later events undelivered", d.next, len(d.pending))
	}
	if d.gate.stuck {
		return fmt.Errorf("eval: scheduler waits with no outstanding events after %d delivered", d.next)
	}
	return nil
}

// --- Concrete stages used by Runner ------------------------------------

// gridSource streams the flattened model-major (model, question) grid,
// so the worker pool stays busy across model boundaries — a cheap
// model finishing early does not idle its workers while an expensive
// one lags.
type gridSource struct {
	models    []Model
	questions []*dataset.Question
}

func (s gridSource) Len() int { return len(s.models) * len(s.questions) }

func (s gridSource) Event(t int) Event {
	nq := len(s.questions)
	return Event{Seq: t, Model: s.models[t/nq], Question: s.questions[t%nq]}
}

// modelInference asks the event's model for an answer.
type modelInference struct {
	opts InferenceOptions
}

func (st modelInference) Infer(_ context.Context, ev *Event) {
	ev.Response = ev.Model.Answer(ev.Question, st.opts)
}

// judgeStage scores the response with the equivalence judge, reusing
// the executing worker's Scratch so the steady-state judge path does
// not allocate.
type judgeStage struct {
	judge Judge
}

func (st judgeStage) Judge(_ context.Context, ev *Event) {
	ev.Correct = st.judge.CorrectWith(ev.Question, ev.Response, ev.scratch)
}

// reportSink appends each event to its model's report. Events arrive
// in Seq order and the grid is model-major, so every report's Results
// fill in question order, and a cancelled run leaves each report with
// a clean prefix (earlier models complete, later models empty).
type reportSink struct {
	nq      int // questions per model; divides Seq into (model, question)
	reports []*Report
}

func (s *reportSink) Consume(ev Event) {
	// nq > 0: an empty grid issues no events.
	mi := ev.Seq / s.nq
	s.reports[mi].Results = append(s.reports[mi].Results, QuestionResult{
		QuestionID: ev.Question.ID,
		Category:   ev.Question.Category,
		Response:   ev.Response,
		Correct:    ev.Correct,
	})
}
