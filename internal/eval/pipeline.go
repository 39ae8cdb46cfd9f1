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
// The ItemScheduler's Next seeds Seq, Model and Question in every run
// (a Pipeline.Source is wrapped in a scheduler too); Inference fills
// Response; JudgeStage fills Correct; when the pipeline has an
// Observer, the delivery layer stamps At just before the Sink and
// Observer see the event.
type Event struct {
	// Seq is the event's position in the run's canonical order: the
	// question index for single-model runs, the flattened model-major
	// (model, question) task index for grid runs.
	Seq      int
	Model    Model
	Question *dataset.Question
	Response string
	Correct  bool
	// At is the delivery timestamp from the pipeline clock seam,
	// stamped only when the pipeline has an Observer (it stays zero
	// otherwise). It is observability-only: reports never contain it,
	// so runs stay byte-identical regardless of wall-clock behaviour.
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
	// Clock stamps Event.At at delivery when Observer is set; nil uses
	// the package clock seam (clock.go). Tests pin it for reproducible
	// timestamps.
	Clock func() time.Time
}

// Run executes the pipeline until the scheduler drains or ctx is
// cancelled, returning ctx.Err(). A scheduler that breaks its
// contract (ItemScheduler) fails the run with an error instead: a
// repeated Seq stops delivery at once, a skipped Seq is reported once
// the workers exit, or all wait for room in the reorder window, with
// events still parked behind it, and a
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
	nw := p.Workers
	if s, ok := sched.(schedulerSize); ok && nw > s.SizeHint() {
		nw = s.SizeHint()
	}
	if nw < 1 {
		nw = 1
	}
	gate := newSchedGate()
	d := &delivery{
		ring:    make([]slot, ringSize(sched, nw)),
		workers: nw,
		done:    ctx.Done(),
		sink:    p.Sink,
		obs:     p.Observer,
		clock:   clock,
		sched:   sched,
		gate:    gate,
	}
	// One Event and one Scratch per worker, reused for the whole run:
	// each belongs to exactly one goroutine, so Infer and Judge run
	// without per-event allocation, locking or pool traffic.
	evs := make([]Event, nw)
	work := func(w int) {
		ev, sc := &evs[w], getScratch()
		judged := 0
		for !closed(d.done) && !d.stopped.Load() {
			var st ScheduleState
			*ev, st = sched.Next()
			if st == ScheduleWait {
				// Arm the gate, then re-check: a Record between the
				// first Next and arm would otherwise be a missed
				// wake-up. The static path never reaches here.
				wake := gate.arm()
				*ev, st = sched.Next()
				if st == ScheduleWait {
					if d.stopped.Load() {
						// A stop's pulse may have preceded this arm;
						// nothing would wake the wait below.
						break
					}
					if gate.park(wake, nw) {
						// Nothing can ever pulse the gate: stop the
						// run and release the other waiters.
						d.stop()
						break
					}
					select {
					case <-wake:
					case <-d.done:
					}
					continue
				}
			}
			if st == ScheduleDone {
				break
			}
			ev.scratch = sc
			p.Infer.Infer(ctx, ev)
			p.Judge.Judge(ctx, ev)
			ev.scratch = nil
			judged++
			d.publish(ev)
		}
		d.judged.Add(int64(judged))
		putScratch(sc)
		if gate.leave(nw) {
			d.stop()
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
	return d.result(ctx)
}

// ringPerWorker sizes the reorder window: ringSize gives each worker
// this many slots of lead over the lowest undelivered Seq. A worker
// the OS deschedules for a while lets the others run far ahead — on a
// 2-worker Table II sweep they park nearly the whole 1,704-event grid,
// and on a 12,000-event stream shard several thousand events — so a
// small window would turn every such stall into backpressure.
const ringPerWorker = 4096

// ringMax caps the window (about 9 MB of slots) however many workers
// a caller asks for.
const ringMax = 1 << 16

// ringSize is the reorder window for a run of the given worker count,
// clamped to a static source's length: no Seq of such a run can lap
// the ring, so it never waits for room.
func ringSize(sched ItemScheduler, workers int) int {
	n := min(ringPerWorker*workers, ringMax)
	if s, ok := sched.(*sourceScheduler); ok && s.n < n {
		n = max(s.n, 1)
	}
	return n
}

// Slot phases: the low two bits of slot.state. The remaining bits hold
// the slot's lap, Seq / len(ring), so slot i of lap L accepts exactly
// Seq L*len(ring)+i; the zero state is lap 0, free.
const (
	slotFree    = iota // waiting for its lap's Seq
	slotWriting        // a worker is copying the event in
	slotReady          // parked until the drainer reaches it
	lapShift    = 2
)

// slot is one reorder-window cell.
type slot struct {
	state atomic.Uint64
	ev    Event
}

// delivery is the reorder buffer between the parallel stages and the
// ordered sink: a ring of W slots indexed by Seq % W. A worker parks
// its judged event in the slot its Seq names, waiting while that slot
// still holds the previous lap (backpressure: at most W events are
// ever parked), then tries to take the drain role. One drainer at a
// time emits the contiguous ready prefix, which serialises Record,
// Sink and Observer and keeps them in canonical order for any worker
// count; a worker that finds the role taken goes back to work.
type delivery struct {
	ring    []slot
	workers int
	done    <-chan struct{} // the run's ctx.Done()
	stopped atomic.Bool     // cancelled or broken; drop instead of emit
	sink    Sink
	obs     Observer
	clock   func() time.Time
	sched   ItemScheduler
	gate    *schedGate
	// The drainer writes next on every event and every publisher
	// tries for the drain role: each sits on its own cache line, so
	// neither write evicts the fields above, which the drainer reads
	// on every event.
	_        cacheLine
	next     atomic.Int64 // lowest Seq not yet emitted
	_        cacheLine
	draining atomic.Bool // the drain role
	_        cacheLine
	judged   atomic.Int64 // events judged, summed as workers exit
	once     sync.Once
	breach   error // the first Seq contract breach, if any
}

// cacheLine pads apart fields that different cores write.
type cacheLine [64]byte

// slotFor returns the ring slot Seq seq maps to and the state that
// slot holds while it is free for seq's lap.
func (d *delivery) slotFor(seq uint64) (*slot, uint64) {
	w := uint64(len(d.ring))
	return &d.ring[seq%w], seq / w << lapShift
}

// publish parks ev in its ring slot and drains what it can. A Seq the
// ring has already taken — parked, being written, or emitted — is the
// scheduler's repeated-Seq breach.
func (d *delivery) publish(ev *Event) {
	if ev.Seq < 0 {
		d.repeated(ev.Seq)
		return
	}
	sl, free := d.slotFor(uint64(ev.Seq))
	for {
		v := sl.state.Load()
		if v == free && sl.state.CompareAndSwap(free, free|slotWriting) {
			break
		}
		if v >= free {
			if v != free {
				d.repeated(ev.Seq)
				return
			}
			continue // lost a race for the slot; look again
		}
		// The slot still holds an earlier lap: wait for the window.
		if d.stopped.Load() || !d.await(sl, free) {
			return
		}
	}
	sl.ev = *ev
	sl.state.Store(free | slotReady)
	d.drain()
}

// await blocks until the drainer frees sl for the lap free names,
// reporting false when the run stopped or its context ended instead. It
// parks on the scheduler gate, so a window no drain can ever advance
// — every worker waiting, the Seq it needs never issued — counts
// towards the stuck run the gate detects.
func (d *delivery) await(sl *slot, free uint64) bool {
	wake := d.gate.arm()
	if sl.state.Load() >= free {
		return true // freed between the failed claim and arm
	}
	if d.stopped.Load() {
		return false // a stop's pulse may have preceded this arm
	}
	if d.gate.park(wake, d.workers) {
		d.stop()
		return false
	}
	select {
	case <-wake:
		return true
	case <-d.done:
		return false
	}
}

// drain takes the drain role if it is free and emits the ready prefix.
// After letting go of the role it looks at the next slot once more: a
// worker that published there while the role was held saw the role
// taken and went back to work, so this re-check is what keeps that
// event from waiting for the next publish.
func (d *delivery) drain() {
	// Load before the CAS: while another worker drains, a failed CAS
	// would still take the role's cache line away from it.
	for !d.draining.Load() && d.draining.CompareAndSwap(false, true) {
		n := d.emit()
		d.draining.Store(false)
		if n > 0 {
			// Record may have issued new work, and emitting freed
			// slots: wake workers parked on either.
			d.gate.pulse()
		}
		sl, free := d.slotFor(uint64(d.next.Load()))
		if d.stopped.Load() || sl.state.Load() != free|slotReady {
			return
		}
	}
}

// emit delivers ready slots in Seq order until it reaches one not yet
// ready, returning how many it delivered. The caller holds the drain
// role; each slot's event is recorded, stamped (if an observer
// listens) and handed to the sink and observer in place, then the slot
// is freed for its next lap.
//
//hot:deliver per-event reorder drain; nothing here may allocate
func (d *delivery) emit() int {
	next := uint64(d.next.Load())
	n := 0
	for !d.stopped.Load() {
		if closed(d.done) {
			// Stop emitting the moment cancellation is visible — even
			// for events already parked — so an observer that cancels
			// during Observe cuts the report off deterministically
			// right after its event.
			d.stop()
			break
		}
		sl, free := d.slotFor(next)
		if sl.state.Load() != free|slotReady {
			break
		}
		// The scheduler hears the judged outcome first — in canonical
		// Seq order — and may annotate the event (ability, stop reason)
		// before the sink and observer see it.
		d.sched.Record(&sl.ev)
		if d.obs != nil {
			// Only observers read At; skip the clock read without one.
			sl.ev.At = d.clock()
		}
		if d.sink != nil {
			d.sink.Consume(sl.ev)
		}
		if d.obs != nil {
			d.obs.Observe(sl.ev)
		}
		next++
		d.next.Store(int64(next))
		sl.state.Store(free + 1<<lapShift) // free for the next lap
		n++
	}
	return n
}

// closed reports whether done is closed without blocking or locking,
// which ctx.Err() does on every call. A nil done (a context that never
// ends) is never closed.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// stop makes every worker drop its work and wakes any that wait.
func (d *delivery) stop() {
	d.stopped.Store(true)
	d.gate.pulse()
}

// repeated fails the run on a Seq the scheduler issued twice.
func (d *delivery) repeated(seq int) {
	d.once.Do(func() { d.breach = fmt.Errorf("eval: scheduler issued Seq %d twice", seq) })
	d.stop()
}

// result is the run's outcome once every worker has exited: a Seq
// contract breach, else ctx.Err(), else a gap — an uncancelled run
// that judged events it never delivered never saw the Seq they wait
// behind — else a wait that nothing outstanding could ever end.
func (d *delivery) result(ctx context.Context) error {
	if d.breach != nil {
		return d.breach
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	next := d.next.Load()
	if n := d.judged.Load() - next; n > 0 {
		return fmt.Errorf("eval: scheduler skipped Seq %d; %d later events undelivered", next, n)
	}
	if d.gate.stuck {
		return fmt.Errorf("eval: scheduler waits with no outstanding events after %d delivered", next)
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
