package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/eval"
	"repro/internal/runspec"
)

// RunSpec is the POST /v1/runs request body, the run definition the
// CLI shares; a stored spec reads back with its defaults resolved.
type RunSpec = runspec.Spec

// RunStatus is the wire form of a run's current state.
type RunStatus struct {
	ID         string   `json:"id"`
	Session    string   `json:"session"`
	Kind       string   `json:"kind"`
	Collection string   `json:"collection,omitempty"`
	State      string   `json:"state"`
	Workers    int      `json:"workers,omitempty"`
	Events     int      `json:"events"`
	Models     []string `json:"models"`
	Error      string   `json:"error,omitempty"`
}

// status snapshots the run for JSON.
func (r *run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunStatus{
		ID:         r.id,
		Session:    r.session,
		Kind:       r.spec.Kind,
		Collection: r.spec.Collection,
		State:      r.state.String(),
		Workers:    r.workers,
		Events:     len(r.ends),
		Models:     r.spec.Models,
		Error:      r.failure,
	}
}

// reportsSnapshot returns the run's reports (nil until terminal; the
// slice is never mutated after finish) and its current state.
func (r *run) reportsSnapshot() ([]*eval.Report, runState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reports, r.state
}

// launch admits a validated spec and starts its execution goroutine.
func (s *Server) launch(parent context.Context, spec RunSpec) (*run, error) {
	leave, err := s.sched.enter(spec.Session)
	if err != nil {
		return nil, err
	}
	rn, err := s.reg.create(parent, spec.Session, spec, leave)
	if err != nil {
		leave()
		return nil, err
	}
	go s.execute(rn)
	return rn, nil
}

// execute drives one run to a terminal state. It owns the run's
// lifecycle bookkeeping: scheduler exit, context release, done close,
// and the registry's in-flight count.
func (s *Server) execute(r *run) {
	defer s.reg.runExited()
	defer close(r.done)
	defer r.cancel()
	reports, err := s.dispatch(r)
	// Leave the session before finish publishes the done line: until
	// then the finished run still counts against -max-sessions, and a
	// tenant arriving just after done could be refused.
	r.leave()
	r.finish(reports, err)
}

// dispatch acquires the worker grant and hands the run to the shared
// dispatcher, returning whatever reports exist (a deterministic prefix
// on cancellation).
func (s *Server) dispatch(r *run) ([]*eval.Report, error) {
	workers, release, err := s.sched.acquire(r.ctx, r.spec.Workers)
	if err != nil {
		return nil, err
	}
	defer release()
	r.begin(workers, s.env.Events(r.spec))
	reports, _, err := s.env.Run(r.ctx, r.spec, workers, s.observerFor(r))
	return reports, err
}

// observerFor adapts the pipeline's in-order Observer seam onto the
// run's append-only event log. The pipeline invokes it from the
// reorder buffer's single drain role, so appends happen in canonical
// Seq order and every subscriber replays an identical stream.
func (s *Server) observerFor(r *run) eval.Observer {
	gate := s.eventGate
	return eval.ObserverFunc(func(ev eval.Event) {
		if gate != nil {
			gate(r.ctx, r.id, r.eventCount())
		}
		q := ev.Question
		re := RunEvent{
			Model:      ev.Model.Name(),
			QuestionID: q.ID,
			Category:   q.Category.Short(),
			Type:       q.Type.String(),
			Response:   ev.Response,
			Correct:    ev.Correct,
		}
		if ev.Adaptive {
			ability, se := ev.Ability, ev.AbilitySE
			re.Ability, re.AbilitySE = &ability, &se
			re.StopReason = ev.StopReason
		}
		r.appendEvent(&re)
	})
}

// handleRunLaunch is POST /v1/runs.
func (s *Server) handleRunLaunch(w http.ResponseWriter, r *http.Request) {
	// The body is strict JSON (no unknown fields, 1 MiB cap).
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad run spec: %v", err)
		return
	}
	if err := s.env.Validate(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	streaming := spec.Stream != ""
	parent := s.base
	if streaming {
		// The run lives and dies with this request: a client disconnect
		// cancels it, leaving a deterministic prefix report behind.
		parent = r.Context()
	}
	rn, err := s.launch(parent, spec)
	switch {
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, errTooManySessions):
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !streaming {
		w.Header().Set("Location", "/v1/runs/"+rn.id)
		writeJSON(w, http.StatusCreated, rn.status())
		return
	}
	f := formatNDJSON
	if spec.Stream == "sse" {
		f = formatSSE
	}
	streamRun(r.Context(), w, rn, f, 0)
}

// handleRunList is GET /v1/runs: every run in creation order (the
// canonical listing order). ?state= and ?kind= filter; unknown filter
// values are a 400, not an empty listing, so typos fail loudly.
func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	switch state {
	case "", "queued", "running", "done", "cancelled", "failed":
	default:
		httpError(w, http.StatusBadRequest, "unknown state filter %q", state)
		return
	}
	kind := r.URL.Query().Get("kind")
	switch kind {
	case "", "eval", "extended", "adaptive":
	default:
		httpError(w, http.StatusBadRequest, "unknown kind filter %q", kind)
		return
	}
	out := struct {
		Runs []RunStatus `json:"runs"`
	}{Runs: []RunStatus{}}
	for _, rn := range s.reg.list() {
		st := rn.status()
		if state != "" && st.State != state {
			continue
		}
		if kind != "" && st.Kind != kind {
			continue
		}
		out.Runs = append(out.Runs, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRunGet is GET /v1/runs/{id}.
func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rn.status())
}

// handleRunDelete is DELETE /v1/runs/{id}: cancel (idempotent). With
// ?wait=1 it blocks until the run reaches its terminal state, so the
// returned status already reflects the recorded prefix.
func (s *Server) handleRunDelete(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	rn.cancel()
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-rn.done:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusAccepted, rn.status())
}

// handleRunEvents is GET /v1/runs/{id}/events: replay the event log
// from the beginning (or ?from=N) and follow it live until the run
// ends. ?format=ndjson|sse selects the encoding; an Accept header of
// text/event-stream also selects SSE.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	f := formatNDJSON
	switch r.URL.Query().Get("format") {
	case "", "ndjson":
		if r.URL.Query().Get("format") == "" && acceptsSSE(r) {
			f = formatSSE
		}
	case "sse":
		f = formatSSE
	default:
		httpError(w, http.StatusBadRequest, "format must be ndjson or sse")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from %q", v)
			return
		}
		from = n
	}
	streamRun(r.Context(), w, rn, f, from)
}

// handleRunReport is GET /v1/runs/{id}/report: the canonical report
// JSON once the run is terminal (for cancelled runs, the deterministic
// completed prefix). 409 while still running.
func (s *Server) handleRunReport(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	reports, state := rn.reportsSnapshot()
	if !state.terminal() {
		httpError(w, http.StatusConflict, "run %s not finished (state %s)", rn.id, state)
		return
	}
	body, err := MarshalReports(reports)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Chipvqa-Run-State", state.String())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
