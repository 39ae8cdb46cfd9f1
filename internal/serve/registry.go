package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/eval"
)

// runState is the lifecycle of one launched run. Transitions are
// monotone: queued → running → one of the three terminal states.
type runState int

const (
	runQueued runState = iota
	runRunning
	runDone      // finished every question
	runCancelled // ctx cancel (client disconnect, DELETE, or drain)
	runFailed    // admission or evaluation error
)

// terminal reports whether no further events can arrive.
func (s runState) terminal() bool { return s >= runDone }

func (s runState) String() string {
	switch s {
	case runQueued:
		return "queued"
	case runRunning:
		return "running"
	case runDone:
		return "done"
	case runCancelled:
		return "cancelled"
	case runFailed:
		return "failed"
	}
	return fmt.Sprintf("runState(%d)", int(s))
}

// errDraining rejects new runs once graceful drain has begun.
var errDraining = errors.New("serve: draining, not admitting new runs")

// run is one launched evaluation. Its event log is append-only and
// delivered in the pipeline's canonical Seq order (the eval Observer is
// invoked from the reorder buffer's single drain role), so every subscriber —
// however late it attaches — replays the identical byte stream. The log
// is kept as canonical NDJSON bytes, each event encoded once when it is
// appended; subscribers copy those bytes and never re-encode.
type run struct {
	id      string
	session string
	spec    RunSpec
	ctx     context.Context
	cancel  context.CancelFunc
	leave   func() // scheduler session exit; idempotent
	done    chan struct{}

	mu      sync.Mutex
	state   runState
	workers int           // granted budget once running
	lines   []byte        // the event log: each event's JSON, then '\n'
	ends    []int         // ends[i] is the offset in lines just past event i
	notify  chan struct{} // closed+replaced at a change, once a reader took it
	watched bool          // a reader took notify since it was last replaced
	reports []*eval.Report
	failure string
}

// RunEvent is one per-question result on the wire. Seq is the global
// in-order event index for the run; timestamps are deliberately absent
// so streams are byte-deterministic for a fixed (spec, seed).
type RunEvent struct {
	Seq        int    `json:"seq"`
	Model      string `json:"model"`
	QuestionID string `json:"question_id"`
	Category   string `json:"category"`
	Type       string `json:"type"`
	Response   string `json:"response"`
	Correct    bool   `json:"correct"`
	// Adaptive runs annotate every event with the model's posterior
	// ability estimate after this outcome, and the model's final event
	// carries its stop reason. Pointer fields keep static-run streams
	// byte-identical to earlier schema versions (the keys are absent,
	// not zero).
	Ability    *float64 `json:"ability,omitempty"`
	AbilitySE  *float64 `json:"ability_se,omitempty"`
	StopReason string   `json:"stop_reason,omitempty"`
}

// appendEvent encodes the next in-order event onto the log and wakes
// any waiting subscriber. ev's Seq is overwritten with its log index.
// It runs in the reorder buffer's drain role, so a log grown to fit
// must not allocate.
//
//hot:serve per-event append in the reorder buffer's drain role
func (r *run) appendEvent(ev *RunEvent) {
	r.mu.Lock()
	ev.Seq = len(r.ends)
	r.lines = append(appendEventJSON(r.lines, ev), '\n')
	r.ends = append(r.ends, len(r.lines))
	wake := r.rewatchLocked()
	r.mu.Unlock()
	if wake != nil {
		close(wake)
	}
}

// rewatchLocked replaces the notify channel and returns the old one for
// the caller to close once unlocked, but only if a reader took it since
// the last replacement; otherwise no one can be waiting on it, so it
// stays and rewatchLocked returns nil. The caller holds r.mu.
func (r *run) rewatchLocked() chan struct{} {
	if !r.watched {
		return nil
	}
	wake := r.notify
	r.notify = make(chan struct{})
	r.watched = false
	return wake
}

// eventCount is the number of events appended so far.
func (r *run) eventCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ends)
}

// lineBytesHint is the log bytes begin reserves per expected event.
// Every model's Table II runs, standard and challenge, average 124 to
// 159 B a line, so they fill the reservation without regrowing it, and
// finish trims what is left. Growing the log by doubling instead cost
// serve_mix about 13% of its qps on a 2-vCPU host.
const lineBytesHint = 160

// begin marks the run running with its granted worker budget. A
// positive events presizes the log for that many events.
func (r *run) begin(workers, events int) {
	r.mu.Lock()
	r.state = runRunning
	r.workers = workers
	if events > 0 {
		r.ends = make([]int, 0, events)
		r.lines = make([]byte, 0, events*lineBytesHint)
	}
	wake := r.rewatchLocked()
	r.mu.Unlock()
	if wake != nil {
		close(wake)
	}
}

// finish records the terminal state plus whatever reports exist (for a
// cancelled run these hold the deterministic completed prefix). The
// log is copied to its exact size, so a retained run keeps no spare
// capacity from append; subscribers still holding the old arrays keep
// reading them.
func (r *run) finish(reports []*eval.Report, err error) {
	r.mu.Lock()
	r.reports = reports
	switch {
	case err == nil:
		r.state = runDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.state = runCancelled
	default:
		r.state = runFailed
		r.failure = err.Error()
	}
	if cap(r.lines) > len(r.lines) {
		r.lines = append(make([]byte, 0, len(r.lines)), r.lines...)
	}
	if cap(r.ends) > len(r.ends) {
		r.ends = append(make([]int, 0, len(r.ends)), r.ends...)
	}
	wake := r.rewatchLocked()
	r.mu.Unlock()
	if wake != nil {
		close(wake)
	}
}

// snapshot returns the log from event `from` on, the current state, and
// a channel closed at the next change. Event from+k's NDJSON line is
// lines[start:ends[0]] for k = 0 and lines[ends[k-1]:ends[k]] after it.
// The slices alias the append-only log: bytes are never rewritten once
// appended, so readers may hold them without the lock.
func (r *run) snapshot(from int) (lines []byte, start int, ends []int, state runState, changed chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from = max(0, min(from, len(r.ends)))
	if from > 0 {
		start = r.ends[from-1]
	}
	r.watched = true
	return r.lines, start, r.ends[from:], r.state, r.notify
}

// registry owns every run the server has launched, hands out sequential
// ids, and tracks in-flight executions so drain can wait for quiescence
// without a WaitGroup Add/Wait reuse race: the inflight count is bumped
// under the same lock that refuses new runs once draining.
type registry struct {
	mu       sync.Mutex
	runs     map[string]*run
	order    []*run
	nextID   int
	inflight int
	changed  chan struct{} // closed+replaced whenever a run exits
	draining bool
}

func newRegistry() *registry {
	return &registry{
		runs:    make(map[string]*run),
		changed: make(chan struct{}),
	}
}

// create registers a new run under parent's cancellation scope, or
// refuses with errDraining. The caller owns starting the execution
// goroutine; runExited must be called exactly once when it ends.
func (g *registry) create(parent context.Context, session string, spec RunSpec, leave func()) (*run, error) {
	ctx, cancel := context.WithCancel(parent)
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		cancel()
		return nil, errDraining
	}
	g.nextID++
	r := &run{
		id:      fmt.Sprintf("r%04d", g.nextID),
		session: session,
		spec:    spec,
		ctx:     ctx,
		cancel:  cancel,
		leave:   leave,
		done:    make(chan struct{}),
		notify:  make(chan struct{}),
	}
	g.runs[r.id] = r
	g.order = append(g.order, r)
	g.inflight++
	g.mu.Unlock()
	return r, nil
}

// get looks a run up by id.
func (g *registry) get(id string) (*run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// list returns every run in creation order.
func (g *registry) list() []*run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*run, len(g.order))
	copy(out, g.order)
	return out
}

// runExited marks one execution goroutine finished.
func (g *registry) runExited() {
	g.mu.Lock()
	g.inflight--
	wake := g.changed
	g.changed = make(chan struct{})
	g.mu.Unlock()
	close(wake)
}

// beginDrain stops create from admitting further runs.
func (g *registry) beginDrain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
}

// isDraining reports whether drain has begun.
func (g *registry) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// counts returns (total runs, in-flight executions).
func (g *registry) counts() (int, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.order), g.inflight
}

// cancelAll cancels every non-terminal run, returning how many.
func (g *registry) cancelAll() int {
	forced := 0
	for _, r := range g.list() {
		r.mu.Lock()
		live := !r.state.terminal()
		r.mu.Unlock()
		if live {
			r.cancel()
			forced++
		}
	}
	return forced
}

// waitIdle blocks until no executions are in flight, reporting true,
// or until done closes, reporting false. A nil done never closes: Drain
// waits that way after cancelAll, whose cancellations bound every run's
// remaining work, so the wait terminates.
func (g *registry) waitIdle(done <-chan struct{}) bool {
	for {
		g.mu.Lock()
		n := g.inflight
		ch := g.changed
		g.mu.Unlock()
		if n == 0 {
			return true
		}
		select {
		case <-ch:
		case <-done:
			return false
		}
	}
}
