package eval

import (
	"sync"
	"sync/atomic"
)

// This file is the pipeline's task seam: an ItemScheduler hands the
// pipeline its next task on demand and hears every judged outcome
// back, which is what lets a scheduler *react* — an adaptive run picks
// its next question from the verdicts so far, something a
// Len()/Event(i) grid can never express. Every Runner entry point
// drives the pipeline through this seam; a static task list is a
// Source wrapped by newSourceScheduler into a trivial scheduler.

// ScheduleState is an ItemScheduler's answer to Next.
type ScheduleState int

const (
	// ScheduleReady: the returned event is valid and must be evaluated.
	ScheduleReady ScheduleState = iota
	// ScheduleWait: no event is available right now, but outcomes are
	// still outstanding and recording them may unblock more work. Only
	// legal while at least one issued event has not been recorded —
	// otherwise nothing can ever wake the pipeline again, and
	// Pipeline.Run fails the run once every worker is waiting.
	ScheduleWait
	// ScheduleDone: the run is complete; no further events will be
	// issued. Must be sticky: once returned, every later Next must
	// return it too. Pipeline.Run fails a run whose workers exit on
	// Done while the rest wait with nothing outstanding.
	ScheduleDone
)

// ItemScheduler is the pipeline's dynamic source seam.
//
// Next may be called concurrently from every worker; implementations
// guard their own state. Events must be issued with consecutive Seq
// values starting at 0, in the order Next hands them out, because the
// reorder buffer delivers strictly in Seq order. Pipeline.Run fails a
// run that breaks this: a repeated Seq stops delivery with an error,
// and a skipped Seq leaves every later event undelivered and is
// reported when the workers exit or all wait for room in the reorder
// window.
//
// Record receives each judged event exactly once, strictly in Seq
// order, from one goroutine at a time, *before* the sink and observer
// see it; a scheduler may annotate the event in place (ability
// estimates, stop reasons) and the annotations travel to the sink,
// observer, and any serving layer on top. Because Record order is the
// canonical delivery order, a scheduler whose decisions are pure
// functions of the outcomes it has recorded is deterministic for any
// worker count — the §6/§7 invariant extended to dynamic sources.
type ItemScheduler interface {
	Next() (Event, ScheduleState)
	Record(ev *Event)
}

// schedulerSize is an optional ItemScheduler extension bounding useful
// parallelism (a static source's length, an adaptive tournament's
// model count); the pipeline clamps its worker pool to it.
type schedulerSize interface {
	SizeHint() int
}

// sourceScheduler adapts a static Source to the ItemScheduler seam: an
// atomic claim counter hands out each Event(i) exactly once, Record is
// a no-op, and Wait never occurs.
type sourceScheduler struct {
	src  Source
	n    int
	next atomic.Int64
}

func newSourceScheduler(src Source) *sourceScheduler {
	return &sourceScheduler{src: src, n: src.Len()}
}

func (s *sourceScheduler) Next() (Event, ScheduleState) {
	i := int(s.next.Add(1)) - 1
	if i >= s.n {
		return Event{}, ScheduleDone
	}
	return s.src.Event(i), ScheduleReady
}

func (s *sourceScheduler) Record(*Event) {}

func (s *sourceScheduler) SizeHint() int { return s.n }

// schedGate wakes workers parked on ScheduleWait or on a full reorder
// window. A worker arms the gate only after a first Next returned Wait
// or its ring slot was still taken (so a static run that never fills
// its window never touches it), re-checks, parks, and then blocks on
// the armed channel; the delivery path pulses the gate after emitting
// events, which closes the channel only when someone is (or may be)
// waiting. The armed flag lets that pulse skip the mutex when nobody
// is, and the channel is replaced lazily, so a run that never waits
// never allocates here.
type schedGate struct {
	armed  atomic.Bool
	mu     sync.Mutex
	ch     chan struct{}
	parked int  // waiters blocked since the last pulse
	gone   int  // workers that have exited the run
	stuck  bool // every running worker parked at once: no pulse can ever come
}

func newSchedGate() *schedGate {
	return &schedGate{ch: make(chan struct{})}
}

// arm returns the channel the next pulse will close.
func (g *schedGate) arm() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed.Store(true)
	return g.ch
}

// park counts a waiter about to block on wake (unless wake was already
// pulsed) and reports whether every worker still running is now
// parked: then none holds an event whose Record could ever pulse the
// gate.
func (g *schedGate) park(wake <-chan struct{}, workers int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch != wake {
		return false
	}
	g.parked++
	return g.stall(workers)
}

// leave counts a worker that has exited and reports whether it left
// only parked workers behind: an exited worker holds no event, so
// nothing can pulse them either.
func (g *schedGate) leave(workers int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gone++
	return g.parked > 0 && g.stall(workers)
}

// stall reports whether parked and exited workers make up the whole
// pool, and latches stuck when they do. The caller holds g.mu.
func (g *schedGate) stall(workers int) bool {
	if g.parked+g.gone == workers {
		g.stuck = true
		return true
	}
	return false
}

// pulse wakes every armed waiter; a no-op, without locking, when
// nobody armed since the last pulse. A waiter arms before it re-checks
// the state it waits on, and a pulse follows the change to that state,
// so either the re-check sees the change or the pulse sees the arm.
func (g *schedGate) pulse() {
	if !g.armed.Load() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.armed.Load() {
		return
	}
	close(g.ch)
	g.ch = make(chan struct{})
	g.armed.Store(false)
	g.parked = 0
}
