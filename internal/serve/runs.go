package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
)

// RunSpec is the POST /v1/runs request body. Zero values mean "use the
// server default"; normalizeSpec fills them in so a stored spec always
// reads back fully resolved.
type RunSpec struct {
	// Kind selects the run flavour: "eval" (default) evaluates a named
	// collection, "challenge" is sugar for eval over the challenge
	// collection, "extended" generates a seeded extended fold and
	// evaluates it shard-by-shard, "adaptive" calibrates a 2PL item
	// bank over a seeded extended fold (cached per fold) and runs an
	// IRT tournament with early stopping against it.
	Kind string `json:"kind,omitempty"`
	// Collection names the question set for eval runs ("" = standard).
	Collection string `json:"collection,omitempty"`
	// Models lists zoo model names to evaluate; empty means all, and
	// report order follows this list.
	Models []string `json:"models,omitempty"`
	// Session is the tenant identity for scheduling; "" = "anonymous".
	Session string `json:"session,omitempty"`
	// Workers is the requested worker grant; 0 asks for the session
	// share, and any request is clamped to it. Negative is an error.
	Workers int `json:"workers,omitempty"`
	// Downsample degrades question images by this power-of-two factor
	// before models see them (1 = original).
	Downsample int `json:"downsample,omitempty"`
	// Seed / PerCategory / ShardSize parameterise extended runs.
	Seed        string `json:"seed,omitempty"`
	PerCategory int    `json:"per_category,omitempty"`
	ShardSize   int    `json:"shard_size,omitempty"`
	// Stream, when "ndjson" or "sse", streams the run's events in the
	// POST response body itself; the run is then scoped to the request
	// context, so disconnecting cancels it (deterministic prefix).
	// Empty launches detached and returns 201 immediately.
	Stream string `json:"stream,omitempty"`
}

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

// decodeRunSpec parses the POST body (strict fields, 1 MiB cap).
func decodeRunSpec(w http.ResponseWriter, r *http.Request) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("bad run spec: %v", err)
	}
	return spec, nil
}

// normalizeSpec validates spec and resolves every default in place, so
// the stored spec fully determines the run.
func (s *Server) normalizeSpec(spec *RunSpec) error {
	switch spec.Kind {
	case "", "eval":
		spec.Kind = "eval"
	case "challenge":
		if spec.Collection != "" && spec.Collection != "challenge" {
			return fmt.Errorf("kind challenge implies collection challenge, not %q", spec.Collection)
		}
		spec.Kind = "eval"
		spec.Collection = "challenge"
	case "extended":
		if spec.Collection != "" {
			return fmt.Errorf("extended runs generate their own questions; collection must be empty")
		}
		if spec.Seed == "" {
			spec.Seed = "fold-a"
		}
		if spec.PerCategory == 0 {
			spec.PerCategory = 10
		}
		if spec.PerCategory < 1 || spec.PerCategory > 2000 {
			return fmt.Errorf("per_category %d outside [1, 2000]", spec.PerCategory)
		}
		if spec.ShardSize == 0 {
			spec.ShardSize = 64
		}
		if spec.ShardSize < 1 || spec.ShardSize > 4096 {
			return fmt.Errorf("shard_size %d outside [1, 4096]", spec.ShardSize)
		}
	case "adaptive":
		if spec.Collection != "" {
			return fmt.Errorf("adaptive runs generate their own fold; collection must be empty")
		}
		if spec.ShardSize != 0 {
			return fmt.Errorf("adaptive runs pull one item at a time; shard_size must be empty")
		}
		if spec.Seed == "" {
			spec.Seed = "fold-a"
		}
		if spec.PerCategory == 0 {
			spec.PerCategory = 10
		}
		if spec.PerCategory < 1 || spec.PerCategory > 2000 {
			return fmt.Errorf("per_category %d outside [1, 2000]", spec.PerCategory)
		}
	default:
		return fmt.Errorf("unknown run kind %q", spec.Kind)
	}
	if spec.Kind == "eval" {
		if spec.Seed != "" || spec.PerCategory != 0 || spec.ShardSize != 0 {
			return fmt.Errorf("seed/per_category/shard_size only apply to extended runs")
		}
		if spec.Collection == "" {
			spec.Collection = "standard"
		}
		if _, ok := s.collection(spec.Collection); !ok {
			return fmt.Errorf("unknown collection %q", spec.Collection)
		}
	}
	if spec.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", spec.Workers)
	}
	if spec.Workers > 4096 {
		return fmt.Errorf("workers %d outside [0, 4096]", spec.Workers)
	}
	if spec.Downsample == 0 {
		spec.Downsample = 1
	}
	if !visual.ValidFactor(spec.Downsample) {
		return fmt.Errorf("downsample must be one of 1,2,4,8,16,32, got %d", spec.Downsample)
	}
	if len(spec.Models) == 0 {
		spec.Models = s.modelNames
	} else {
		seen := make(map[string]bool, len(spec.Models))
		for _, name := range spec.Models {
			if _, ok := s.modelByName[name]; !ok {
				return fmt.Errorf("unknown model %q", name)
			}
			if seen[name] {
				return fmt.Errorf("duplicate model %q", name)
			}
			seen[name] = true
		}
	}
	if spec.Session == "" {
		spec.Session = "anonymous"
	}
	if len(spec.Session) > 64 {
		return fmt.Errorf("session name longer than 64 bytes")
	}
	for i := 0; i < len(spec.Session); i++ {
		if c := spec.Session[i]; c < 0x20 || c == 0x7f {
			return fmt.Errorf("session name contains control characters")
		}
	}
	switch spec.Stream {
	case "", "ndjson", "sse":
	default:
		return fmt.Errorf("stream must be empty, \"ndjson\" or \"sse\", got %q", spec.Stream)
	}
	return nil
}

// launch admits a normalized spec and starts its execution goroutine.
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
	defer r.leave()
	reports, err := s.runEval(r)
	r.finish(reports, err)
}

// runEval acquires the worker grant and runs the evaluation, returning
// whatever reports exist (a deterministic prefix on cancellation).
func (s *Server) runEval(r *run) ([]*eval.Report, error) {
	workers, release, err := s.sched.acquire(r.ctx, r.spec.Workers)
	if err != nil {
		return nil, err
	}
	defer release()
	events := 0
	if r.spec.Kind == "eval" {
		if b, ok := s.collection(r.spec.Collection); ok {
			events = len(r.spec.Models) * len(b.Questions)
		}
	}
	r.begin(workers, events)
	runner := eval.Runner{
		Workers:  workers,
		Opts:     eval.InferenceOptions{DownsampleFactor: r.spec.Downsample},
		Observer: s.observerFor(r),
	}
	models := s.modelsFor(r.spec)
	if r.spec.Kind == "adaptive" {
		cal, err := s.calibration(r.spec.Seed, r.spec.PerCategory, workers)
		if err != nil {
			return nil, err
		}
		// The tournament tie-break seed is the fold seed, so a fixed
		// spec fully determines the transcript (bit-reproducible).
		res, runErr := cal.Run(r.ctx, runner, models, adaptive.Config{Seed: r.spec.Seed})
		if res == nil {
			return nil, runErr
		}
		return res.Reports, runErr
	}
	if r.spec.Kind == "extended" {
		reports := make([]*eval.Report, len(models))
		for i := range reports {
			reports[i] = &eval.Report{}
		}
		spec := r.spec
		err := runner.EvaluateShardsContext(r.ctx, models, func(yield func(dataset.Shard) error) error {
			return core.StreamExtended(spec.Seed, spec.PerCategory, spec.ShardSize, yield)
		}, reports)
		return reports, err
	}
	bench, ok := s.collection(r.spec.Collection)
	if !ok {
		return nil, fmt.Errorf("serve: collection %q vanished", r.spec.Collection)
	}
	return runner.EvaluateAllContext(r.ctx, models, bench)
}

// modelsFor resolves the spec's model names (already validated).
func (s *Server) modelsFor(spec RunSpec) []eval.Model {
	out := make([]eval.Model, len(spec.Models))
	for i, name := range spec.Models {
		out[i] = s.modelByName[name]
	}
	return out
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
	spec, err := decodeRunSpec(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.normalizeSpec(&spec); err != nil {
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
	body, err := marshalReports(reports)
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
