// Package serve is the eval-as-a-service layer: a stdlib net/http
// server exposing the ChipVQA benchmark (question browsing, rendered
// question images) and run management (launch, stream, cancel) over a
// small JSON API. It composes seams that already exist underneath —
// the in-order eval.Observer for live per-question results, end-to-end
// context.Context cancellation for client disconnects, a byte-budgeted
// SceneCache of encoded PNGs for image serving, and the
// weighted-FIFO eval.WorkerPool for fair multi-tenant scheduling — so
// everything a client observes over the wire inherits the engine's
// determinism guarantees: for a fixed (spec, seed) the event stream
// and final report are byte-identical to an offline EvaluateAll, and a
// disconnect mid-stream leaves a deterministic prefix report behind.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz                         server + scheduler state
//	GET    /v1/collections                  available question collections
//	GET    /v1/models                       model zoo names
//	GET    /v1/questions                    list (category/type/topic filters)
//	GET    /v1/questions/{id}               one question, full prompt
//	GET    /v1/questions/{id}/image.png     rendered visual (PNG)
//	POST   /v1/runs                         launch run (optionally streaming)
//	GET    /v1/runs                         list runs (?state=, ?kind= filters)
//	GET    /v1/runs/{id}                    run status
//	GET    /v1/runs/{id}/events             event stream (NDJSON or SSE)
//	GET    /v1/runs/{id}/report             final (or prefix) report
//	DELETE /v1/runs/{id}                    cancel
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/adaptive"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/runspec"
	"repro/internal/visual"
)

// Collection is one named, browsable set of questions.
type Collection struct {
	Name      string
	Benchmark *dataset.Benchmark
}

// Config assembles a Server. Benchmark and Models are required.
type Config struct {
	// Benchmark is the standard collection, served under the name
	// "standard" and used by runs that don't name a collection.
	Benchmark *dataset.Benchmark
	// Challenge, when non-nil, is served as the "challenge" collection
	// and is the target of kind:"challenge" runs.
	Challenge *dataset.Benchmark
	// Extra appends further named collections (e.g. a CVQB pack loaded
	// via StreamPack). Names must be unique and not collide with the
	// built-in "standard"/"challenge".
	Extra []Collection

	// Models is the zoo runs evaluate, in canonical order.
	Models []eval.Model

	// PoolWorkers is the machine-wide worker-token budget shared by all
	// runs; < 1 means runtime.GOMAXPROCS(0).
	PoolWorkers int
	// MaxSessions caps concurrent tenants; < 1 defaults to 16.
	MaxSessions int
	// WorkersPerSession clamps any single run's grant; < 1 defaults to
	// an equal split of the pool across MaxSessions.
	WorkersPerSession int

	// Cache holds the encoded question images; nil uses visual.Default.
	Cache *visual.SceneCache

	// AccessLog, when non-nil, receives one JSON line per request.
	// Each line is emitted as a single Write call.
	AccessLog io.Writer

	// BaseContext scopes detached (non-streaming) runs; nil means
	// context.Background(). Cancelling it cancels every detached run.
	BaseContext context.Context
}

// Server is the HTTP daemon. Construct with New, expose via Handler,
// and call Drain for graceful shutdown.
type Server struct {
	collections []Collection
	qIndex      map[string]map[string]*dataset.Question
	env         *runspec.Env // built once: every run is validated and dispatched through it
	cache       *visual.SceneCache
	sched       *scheduler
	reg         *registry
	base        context.Context
	accessLog   io.Writer
	mux         *http.ServeMux

	// eventGate, when set before the server handles traffic, is called
	// by the run observer before each event is appended — a test seam
	// for deterministic mid-stream disconnects.
	eventGate func(ctx context.Context, runID string, seq int)

	// calMu guards cals, the per-fold adaptive calibration cache. A
	// calibration costs a full (zoo x fold) grid evaluation, so it is
	// built once per (seed, per_category) and shared by every adaptive
	// run against that fold. Entries are only stored on success.
	calMu sync.Mutex
	cals  map[string]*calEntry
}

// calEntry serialises calibration builds for one fold key: the first
// run against an uncalibrated fold registers the entry and builds, and
// concurrent runs wait on ready instead of each paying the reference
// grid. cal/err are written exactly once, before ready closes.
type calEntry struct {
	ready chan struct{}
	cal   *adaptive.Calibration
	err   error
}

// calibration returns the cached calibration for (seed, perCategory),
// building it on first use. The build runs under the server's base
// context — not the requesting run's — so a client disconnect cannot
// strand a half-priced grid; the finished bank is cached for everyone.
// The grid is expensive, so it runs outside every lock: calMu only
// covers the entry-claim, and failed builds are deregistered so a later
// run retries (waiters raced into the failed build share its error).
func (s *Server) calibration(seed string, perCategory, workers int) (*adaptive.Calibration, error) {
	key := fmt.Sprintf("%s\x00%d", seed, perCategory)
	s.calMu.Lock()
	e, ok := s.cals[key]
	if !ok {
		e = &calEntry{ready: make(chan struct{})}
		s.cals[key] = e
	}
	s.calMu.Unlock()
	if !ok {
		e.cal, e.err = runspec.Calibrate(s.base, s.env.Models(), seed, perCategory, workers)
		if e.err != nil {
			s.calMu.Lock()
			delete(s.cals, key)
			s.calMu.Unlock()
		}
		close(e.ready)
	}
	<-e.ready
	return e.cal, e.err
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Benchmark == nil {
		return nil, fmt.Errorf("serve: Config.Benchmark is required")
	}
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: Config.Models is required")
	}
	ctx := cfg.BaseContext
	if ctx == nil {
		ctx = context.Background()
	}
	cache := cfg.Cache
	if cache == nil {
		cache = visual.Default
	}
	s := &Server{
		qIndex:    make(map[string]map[string]*dataset.Question),
		cache:     cache,
		reg:       newRegistry(),
		base:      ctx,
		accessLog: cfg.AccessLog,
		cals:      make(map[string]*calEntry),
	}
	byName := make(map[string]*dataset.Benchmark)
	add := func(name string, b *dataset.Benchmark) error {
		if _, dup := byName[name]; dup {
			return fmt.Errorf("serve: duplicate collection %q", name)
		}
		byName[name] = b
		s.collections = append(s.collections, Collection{Name: name, Benchmark: b})
		idx := make(map[string]*dataset.Question, b.Len())
		for _, q := range b.Questions {
			idx[q.ID] = q
		}
		s.qIndex[name] = idx
		return nil
	}
	if err := add("standard", cfg.Benchmark); err != nil {
		return nil, err
	}
	if cfg.Challenge != nil {
		if err := add("challenge", cfg.Challenge); err != nil {
			return nil, err
		}
	}
	for _, c := range cfg.Extra {
		if c.Name == "" || c.Benchmark == nil {
			return nil, fmt.Errorf("serve: extra collection needs a name and a benchmark")
		}
		if err := add(c.Name, c.Benchmark); err != nil {
			return nil, err
		}
	}
	env, err := runspec.NewEnv(cfg.Models)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	env.Collections = byName
	env.WireDefaults = true
	env.MaxPerCategory = 2000
	env.Calibrate = s.calibration
	s.env = env
	s.sched = newScheduler(eval.NewWorkerPool(cfg.PoolWorkers), cfg.MaxSessions, cfg.WorkersPerSession)
	s.mux = s.routes()
	return s, nil
}

// routes wires the Go 1.22 enhanced-pattern mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/collections", s.handleCollections)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/questions", s.handleQuestions)
	mux.HandleFunc("GET /v1/questions/{id}", s.handleQuestion)
	mux.HandleFunc("GET /v1/questions/{id}/image.png", s.handleQuestionImage)
	mux.HandleFunc("POST /v1/runs", s.handleRunLaunch)
	mux.HandleFunc("GET /v1/runs", s.handleRunList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleRunDelete)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleRunReport)
	return mux
}

// Handler returns the server's root handler, wrapped in the access-log
// middleware when configured.
func (s *Server) Handler() http.Handler {
	if s.accessLog == nil {
		return s.mux
	}
	return s.logged(s.mux)
}

// Drain performs graceful shutdown: stop admitting runs, wait for
// in-flight runs to finish until ctx is done, then force-cancel the
// stragglers and wait for them to unwind (bounded, because every run's
// remaining work is ctx-scoped). It returns how many runs were
// force-cancelled; 0 means everything finished within the deadline.
func (s *Server) Drain(ctx context.Context) int {
	s.reg.beginDrain()
	if s.reg.waitIdle(ctx.Done()) {
		return 0
	}
	forced := s.reg.cancelAll()
	s.reg.waitIdle(nil)
	return forced
}
