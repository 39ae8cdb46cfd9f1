package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	chipvqa "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/visual"
)

// serve_mix drives an in-process chipvqa serve daemon over HTTP with an
// open loop: arrivals are due on a Poisson schedule whatever the
// server's state, and each request is timed from its due time, so a
// stall shows up in the latency of every request queued behind it.
// runtime.NumCPU() client workers each hold one keep-alive connection;
// an arrival that finds every worker busy waits for one (conn wait).
//
// What the clients ask for is the paper's evaluation, run through the
// daemon: a deck holds the Table II grid (every model on the standard
// collection with choices and on the challenge set, at full
// resolution) and the §IV-B resolution study (resolutionModel on the
// standard collection at each of resolutionFactors), 26 streamed runs.
// The seed orders each deck and spreads its runs over serveTenants
// sessions, the tenant count of the daemon benchmark in ROADMAP.md. No
// traffic of real clients has been recorded, so how the runs arrive is
// a load model, not a replay: Poisson arrivals at a ladder of rates
// that brackets the machine's knee. serve_mix results therefore say
// how the daemon carries the paper's runs under rising load; they do
// not show that a change helps any real client's mix.

const (
	serveTenants    = 8
	resolutionModel = "GPT4o" // the paper's §IV-B model, chipvqa resolution's default
)

// resolutionFactors are the §IV-B downsampling factors below full
// resolution; full resolution is Table II's.
var resolutionFactors = []int{8, 16}

// serveSteps are the open-loop rates; the first is the nominal step,
// whose allocations and live heap are end-to-end metrics and whose
// latencies the serve layer reports.
var serveSteps = []float64{200, 400, 800}

// stepShare splits a phase's seconds between the open-loop steps and
// the closed loop behind qps and the iteration times. On the 2-vCPU
// machine the benchmark was tuned on, open-loop tails through two
// connections swing by 20 to 40% between runs of the same code, with
// head-of-line waits behind the slow runs; medians over closed-loop
// windows (closedStep) have an interquartile range of about 6% over
// ten runs.
var stepShare = []float64{0.3, 0.15, 0.15, 0.4}

// request is one arrival, a streamed run, with what a correct answer
// looks like.
type request struct {
	body string     // the run spec POSTed to /v1/runs, with its tenant
	spec string     // run identity without the tenant, for byte-identity across runs
	want *runExpect // offline reference
}

// runExpect is an offline reference for one run spec.
type runExpect struct {
	events int
	pass1  map[string]float64
}

// sample is what happened to one arrival.
type sample struct {
	due, start, header, firstEvent, end time.Time
	slept                               bool // the worker waited for the due time
	done                                bool // the arrival was sent
	ok                                  bool
	status                              int
	events                              int
	bodyBytes                           int
	lines                               [32]byte // SHA-256 of the event lines
}

// serveWork is the workload's state across its steps.
type serveWork struct {
	cfg    config
	log    io.Writer
	suite  *chipvqa.Suite
	models []eval.Model // what the server evaluates
	packed *dataset.Benchmark
	specs  []serve.RunSpec // one deck's runs, in paper order
	expect map[string]*runExpect

	st *layerStats // traced phase only
	tr *tracer

	mu       sync.Mutex
	lines    map[string][32]byte // spec → hash of the first run's event lines
	problems []string
	nprob    int
}

const maxProblems = 10

// problem records a failed check, keeping the first few messages.
func (w *serveWork) problem(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nprob++
	if len(w.problems) < maxProblems {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// serveSetup is the set-up behind setup_s: the suite, a packed
// collection round-tripped through the pack codec, and a daemon serving
// it, as chipvqa serve -packed starts.
type serveSetup struct {
	suite              *chipvqa.Suite
	packed             *dataset.Benchmark
	encodeMs, decodeMs float64
	packBytes          int
}

func (w *serveWork) setup(ctx context.Context) (serveSetup, error) {
	s, err := chipvqa.NewSuite()
	if err != nil {
		return serveSetup{}, err
	}
	fold, err := core.BuildExtended(w.cfg.seed+"-pack", w.cfg.size.packPerCat)
	if err != nil {
		return serveSetup{}, err
	}
	out := serveSetup{suite: s, packed: &dataset.Benchmark{Name: "packed"}}
	var buf bytes.Buffer
	t0 := now()
	if err := dataset.WritePack(&buf, fold); err != nil {
		return serveSetup{}, err
	}
	out.encodeMs, out.packBytes = ms(since(t0)), buf.Len()
	t0 = now()
	if err := dataset.StreamPack(&buf, 1000, func(sh dataset.Shard) error {
		out.packed.Questions = append(out.packed.Questions, sh.Questions...)
		return nil
	}); err != nil {
		return serveSetup{}, err
	}
	out.decodeMs = ms(since(t0))
	models, err := zooOf(s)
	if err != nil {
		return serveSetup{}, err
	}
	ts, srv, err := startServer(ctx, s, out.packed, models)
	if err != nil {
		return serveSetup{}, err
	}
	stopServer(ctx, ts, srv)
	return out, nil
}

// startServer starts a fresh daemon behind an httptest listener.
func startServer(ctx context.Context, s *chipvqa.Suite, packed *dataset.Benchmark, models []eval.Model) (*httptest.Server, *chipvqa.Server, error) {
	srv, err := s.NewServer(chipvqa.ServerConfig{
		Extra:       []chipvqa.ServerCollection{{Name: "packed", Benchmark: packed}},
		Models:      models,
		PoolWorkers: runtime.NumCPU(),
		BaseContext: ctx,
	})
	if err != nil {
		return nil, nil, err
	}
	return httptest.NewServer(srv.Handler()), srv, nil
}

// stopServer drains the daemon's runs and closes its listener.
func stopServer(ctx context.Context, ts *httptest.Server, srv *chipvqa.Server) {
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	srv.Drain(dctx)
	ts.Close()
}

// paperRuns lists one deck's run specs: the Table II grid, then the
// §IV-B resolution study.
func paperRuns(models []eval.Model) []serve.RunSpec {
	var out []serve.RunSpec
	for _, m := range models {
		for _, coll := range []string{"standard", "challenge"} {
			out = append(out, evalSpec(coll, m.Name(), 1))
		}
	}
	for _, f := range resolutionFactors {
		out = append(out, evalSpec("standard", resolutionModel, f))
	}
	return out
}

// references computes, before any timing, the offline report of every
// run spec of the deck. It runs on visual.Default, so the scenes the
// resolution runs downsample are cached before the daemon serves them,
// as in a daemon that has been serving the paper's runs a while.
func (w *serveWork) references(ctx context.Context, models []eval.Model) error {
	w.expect = make(map[string]*runExpect)
	reference := func(spec serve.RunSpec, r *eval.Report) {
		w.expect[specKey(spec)] = &runExpect{events: len(r.Results), pass1: map[string]float64{r.ModelName: r.Pass1()}}
	}
	r := eval.Runner{Workers: runtime.NumCPU()}
	for _, coll := range []string{"standard", "challenge"} {
		b := w.suite.Benchmark
		if coll == "challenge" {
			b = w.suite.ChallengeSet
		}
		reports, err := r.EvaluateAllContext(ctx, models, b)
		if err != nil {
			return err
		}
		for _, rep := range reports {
			reference(evalSpec(coll, rep.ModelName, 1), rep)
		}
	}
	m, err := w.suite.Model(resolutionModel)
	if err != nil {
		return err
	}
	for _, f := range resolutionFactors {
		r.Opts.DownsampleFactor = f
		rep, err := r.EvaluateContext(ctx, m, w.suite.Benchmark)
		if err != nil {
			return err
		}
		reference(evalSpec("standard", resolutionModel, f), rep)
	}
	for _, spec := range w.specs {
		if w.expect[specKey(spec)] == nil {
			return fmt.Errorf("no offline reference for run %s", specKey(spec))
		}
	}
	return nil
}

// specKey is a run's identity: the spec without its tenant.
func specKey(spec serve.RunSpec) string {
	spec.Session = ""
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a RunSpec always marshals
	}
	return string(b)
}

func evalSpec(coll, model string, ds int) serve.RunSpec {
	return serve.RunSpec{Kind: "eval", Collection: coll, Models: []string{model}, Downsample: ds, Stream: "ndjson"}
}

// deck returns the d-th deck of arrivals of a step: every run of
// w.specs once, each from a tenant drawn from the seed, in an order
// drawn from the seed.
func (w *serveWork) deck(step, d int) []request {
	rs := rng.NewStream(w.cfg.seed, "serve_mix", strconv.Itoa(step), strconv.Itoa(d))
	cards := make([]request, len(w.specs))
	for i, spec := range w.specs {
		key := specKey(spec)
		spec.Session = "tenant-" + strconv.Itoa(rs.IntN(serveTenants))
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // a RunSpec always marshals
		}
		cards[i] = request{body: string(body), spec: key, want: w.expect[key]}
	}
	for i := len(cards) - 1; i > 0; i-- {
		j := rs.IntN(i + 1)
		cards[i], cards[j] = cards[j], cards[i]
	}
	return cards
}

// arrivals returns arrivals from to from+n-1 of a step's decks.
func (w *serveWork) arrivals(step, from, n int) []request {
	k := len(w.specs)
	skip := from % k
	out := make([]request, 0, skip+n+k)
	for d := from / k; len(out) < skip+n; d++ {
		out = append(out, w.deck(step, d)...)
	}
	return out[skip : skip+n]
}

// dues returns n Poisson arrival offsets at the given rate.
func (w *serveWork) dues(step, n int, rate float64) []time.Duration {
	rs := rng.NewStream(w.cfg.seed, "serve_mix", "arrivals", strconv.Itoa(step))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		out[i] = time.Duration(t * 1e9)
		t += -math.Log(1-rs.Float64()) / rate
	}
	return out
}

// drive sends reqs from runtime.NumCPU() workers, one keep-alive
// connection each. With dues, request i is due at start+dues[i] (open
// loop); without, each worker sends back to back until the deadline has
// passed and at least least requests have been taken (closed loop).
func (w *serveWork) drive(ctx context.Context, client *http.Client, base string, reqs []request, dues []time.Duration, deadline time.Duration, least int) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := now()
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := now()
				if dues != nil {
					due = t0.Add(dues[i])
					if wait := due.Sub(now()); wait > 0 {
						samples[i].slept = true
						if !sleep(ctx, wait) {
							return
						}
					}
				} else if due.Sub(t0) >= deadline && i >= least {
					return
				}
				w.send(ctx, client, base, &reqs[i], &samples[i], due)
			}
		}()
	}
	wg.Wait()
	return samples
}

// sleep waits d or until ctx ends, reporting whether d elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// send starts one run and checks its stream.
func (w *serveWork) send(ctx context.Context, client *http.Client, base string, r *request, s *sample, due time.Time) {
	s.done, s.due, s.start = true, due, now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader([]byte(r.body)))
	if err != nil {
		s.end = now()
		w.problem("building run %s: %v", r.body, err)
		return
	}
	var id int64
	if w.tr != nil {
		id = w.tr.id()
		req = req.WithContext(httptrace.WithClientTrace(ctx, w.clientTrace(id)))
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		s.end = now()
		w.problem("run %s: %v", r.body, err)
		return
	}
	s.header = now()
	s.status = resp.StatusCode
	err = w.check(r, s, resp)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	s.end = now()
	s.ok = err == nil
	if err != nil {
		w.problem("run %s: %v", r.body, err)
	}
	if w.tr != nil {
		w.tr.add(w.tr.id(), id, id, "serve.body", s.header, s.end)
		w.tr.add(id, 0, id, "serve.run", s.start, s.end)
	}
}

// clientTrace records the connection and time-to-first-byte spans of
// one request under its root span.
func (w *serveWork) clientTrace(parent int64) *httptrace.ClientTrace {
	var mu sync.Mutex // hooks may run on transport goroutines
	var getConn, wrote time.Time
	return &httptrace.ClientTrace{
		GetConn: func(string) {
			mu.Lock()
			getConn = now()
			mu.Unlock()
		},
		GotConn: func(httptrace.GotConnInfo) {
			mu.Lock()
			start := getConn
			mu.Unlock()
			w.tr.add(w.tr.id(), parent, parent, "http.conn", start, now())
		},
		WroteRequest: func(httptrace.WroteRequestInfo) {
			mu.Lock()
			wrote = now()
			mu.Unlock()
		},
		GotFirstResponseByte: func() {
			mu.Lock()
			start := wrote
			mu.Unlock()
			w.tr.add(w.tr.id(), parent, parent, "http.ttfb", start, now())
		},
	}
}

// check reads a run's response and compares it with the request's
// reference.
func (w *serveWork) check(r *request, s *sample, resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			return err
		}
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return w.checkRun(r, s, resp.Body)
}

// checkRun reads an NDJSON run stream: result lines, then the done
// summary. The result lines of every run of one spec must be byte
// identical, and the summary must match the offline reference.
func (w *serveWork) checkRun(r *request, s *sample, body io.Reader) error {
	br := bufio.NewReaderSize(body, 64<<10)
	h := sha256.New()
	var sum *serve.RunSummary
	for {
		line, err := br.ReadSlice('\n')
		s.bodyBytes += len(line)
		if len(line) > 0 {
			if bytes.HasPrefix(line, []byte(`{"done":`)) {
				sum = &serve.RunSummary{}
				if err := json.Unmarshal(line, sum); err != nil {
					return fmt.Errorf("done line: %v", err)
				}
			} else {
				if s.events == 0 {
					s.firstEvent = now()
				}
				s.events++
				_, _ = h.Write(line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if sum == nil {
		return fmt.Errorf("stream ended without a done summary after %d events", s.events)
	}
	if sum.State != "done" || sum.Events != s.events {
		return fmt.Errorf("run %s ended %s with %d events, %d streamed", sum.ID, sum.State, sum.Events, s.events)
	}
	if r.want == nil || s.events != r.want.events {
		return fmt.Errorf("run %s streamed %d events, reference has %v", sum.ID, s.events, r.want)
	}
	for _, rep := range sum.Reports {
		if want, ok := r.want.pass1[rep.Model]; !ok || rep.Pass1 != want {
			return fmt.Errorf("run %s: %s Pass@1 %v, offline reference %v", sum.ID, rep.Model, rep.Pass1, want)
		}
	}
	var got [32]byte
	h.Sum(got[:0])
	s.lines = got
	w.mu.Lock()
	first, seen := w.lines[r.spec]
	if !seen {
		w.lines[r.spec] = got
	}
	w.mu.Unlock()
	if seen && first != got {
		return fmt.Errorf("run %s event lines differ from an earlier run of the same spec", sum.ID)
	}
	return nil
}

// sampler polls /healthz every 100 ms until ctx ends, keeping the
// highest pool queue and session counts seen.
func sampler(ctx context.Context, base string, queued, sessions *int) {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for sleep(ctx, 100*time.Millisecond) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			continue // the step may be ending
		}
		var h struct{ Sessions, Queued int }
		err = json.NewDecoder(resp.Body).Decode(&h)
		if cerr := resp.Body.Close(); err == nil && cerr == nil {
			*queued = max(*queued, h.Queued)
			*sessions = max(*sessions, h.Sessions)
		}
	}
}

// retainedRuns counts the runs the daemon still holds.
func retainedRuns(ctx context.Context, base string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct{ Runs []json.RawMessage }
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	return len(doc.Runs), nil
}

// timedModel times each answer the daemon asks of its model.
type timedModel struct {
	eval.Model
	st *layerStats
}

func (m timedModel) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	t0 := now()
	r := m.Model.Answer(q, opts)
	m.st.answer(opts, since(t0))
	return r
}

// runServe is the serve_mix workload.
func runServe(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	rep := &report{}
	w := &serveWork{cfg: cfg, log: log, lines: make(map[string][32]byte)}
	su, err := timeSetup(ctx, cfg.size, rep, func() (serveSetup, error) { return w.setup(ctx) })
	if err != nil {
		return nil, err
	}
	w.suite, w.packed = su.suite, su.packed
	zoo, err := zooOf(w.suite)
	if err != nil {
		return nil, err
	}
	w.models, w.specs = zoo, paperRuns(zoo)
	// The daemon's scene cache as chipvqa serve starts it: unbudgeted.
	visual.Default.Reset()
	visual.Default.SetBudget(0)
	if err := w.references(ctx, zoo); err != nil {
		return nil, err
	}
	if cfg.faulty {
		w.models = make([]eval.Model, len(zoo))
		for i, m := range zoo {
			w.models[i] = flipModel{Model: m, question: w.suite.Benchmark.Questions[0].ID}
		}
	}
	if cfg.check {
		p := &phase{layer: map[string]float64{}}
		if err := w.checkDeck(ctx, p); err != nil {
			return nil, err
		}
		rep.problems = append(rep.problems, w.problems...)
		fmt.Fprintf(log, "serve_mix: %d runs checked, %d failed\n", p.attempted, p.failed)
		return rep, nil
	}
	err = phases(ctx, cfg, rep, func(p *phase, st *layerStats, tr *tracer) error {
		p.layer = map[string]float64{
			"dataset.pack_encode_ms": su.encodeMs,
			"dataset.pack_decode_ms": su.decodeMs,
			"dataset.pack_bytes":     float64(su.packBytes),
		}
		w.st, w.tr = st, tr
		secs := phaseSeconds(cfg)
		t0 := now()
		var ladder []step
		for i, rate := range serveSteps {
			s, err := w.openStep(ctx, p, i, rate, secs*stepShare[i])
			if err != nil {
				return err
			}
			ladder = append(ladder, s)
		}
		if err := w.closedStep(ctx, p, len(serveSteps), secs*stepShare[len(serveSteps)]); err != nil {
			return err
		}
		p.wall = since(t0)
		p.layer["serve.max_rate_rps"] = maxRate(ladder)
		if st != nil {
			st.workerNs.Store(int64(p.wall) * int64(runtime.NumCPU()))
		}
		return nil
	})
	rep.problems = append(rep.problems, w.problems...)
	if w.nprob > len(w.problems) {
		rep.fail("%d more failed requests", w.nprob-len(w.problems))
	}
	return rep, err
}

// withServer starts a fresh daemon for one step, runs body against it
// with a client of runtime.NumCPU() keep-alive connections, and stops
// the daemon.
func (w *serveWork) withServer(ctx context.Context, body func(base string, client *http.Client) error) error {
	models := w.models
	if w.st != nil {
		models = make([]eval.Model, len(w.models))
		for i, m := range w.models {
			models[i] = timedModel{Model: m, st: w.st}
		}
	}
	ts, srv, err := startServer(ctx, w.suite, w.packed, models)
	if err != nil {
		return err
	}
	defer stopServer(ctx, ts, srv)
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	return body(ts.URL, &http.Client{Transport: tr})
}

// checkDeck sends one deck, every run of the paper once, closed loop
// on one daemon, for -check.
func (w *serveWork) checkDeck(ctx context.Context, p *phase) error {
	reqs := w.arrivals(0, 0, len(w.specs))
	var samples []sample
	err := w.withServer(ctx, func(base string, client *http.Client) error {
		samples = w.drive(ctx, client, base, reqs, nil, time.Hour, 0)
		return nil
	})
	w.account(p, samples)
	return err
}

// openStep runs one open-loop step: Poisson arrivals at rate for secs
// seconds on a fresh daemon. On the nominal first step it records the
// allocations and live heap, and with tracing the serve-layer metrics.
func (w *serveWork) openStep(ctx context.Context, p *phase, idx int, rate, secs float64) (step, error) {
	nominal := idx == 0
	n := max(int(math.Round(rate*secs)), 1)
	reqs, dues := w.arrivals(idx, 0, n), w.dues(idx, n, rate)
	var samples []sample
	err := w.withServer(ctx, func(base string, client *http.Client) error {
		sctx, stop := context.WithCancel(ctx)
		var wg sync.WaitGroup
		var queued, sessions int
		if nominal && w.st != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sampler(sctx, base, &queued, &sessions)
			}()
		}
		c0 := visual.Default.Stats()
		runtime.GC()
		m0 := memStats()
		samples = w.drive(ctx, client, base, reqs, dues, 0, 0)
		stop()
		wg.Wait()
		if !nominal {
			return nil
		}
		p.mem = memSince(m0)
		p.heapMiB = heapLiveMiB()
		if w.st == nil {
			return nil
		}
		p.layer["serve.pool_queued_max"] = float64(queued)
		p.layer["serve.sessions_active_max"] = float64(sessions)
		c := visual.Default.Stats()
		hits, misses := c.Hits-c0.Hits, c.Misses-c0.Misses
		p.layer["visual.lookups"] = float64(hits + misses)
		if hits+misses > 0 {
			p.layer["visual.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		p.layer["visual.evictions"] = float64(c.Evictions - c0.Evictions)
		p.layer["visual.peak_bytes"] = float64(c.PeakBytes)
		runs, err := retainedRuns(ctx, base)
		p.layer["serve.runs_retained"] = float64(runs)
		return err
	})
	if err != nil {
		return step{}, err
	}
	outs := w.account(p, samples)
	var lastDue, lastEnd time.Time
	for _, s := range samples {
		if s.due.After(lastDue) {
			lastDue = s.due
		}
		if s.end.After(lastEnd) {
			lastEnd = s.end
		}
	}
	if nominal {
		p.work = float64(n)
		w.serveLayer(p, samples)
		h := sha256.New()
		for i, r := range reqs {
			_, _ = h.Write([]byte(r.spec))
			_, _ = h.Write(samples[i].lines[:])
		}
		p.digest = fmt.Sprintf("%x", h.Sum(nil))
	}
	return step{rate: rate, p95ms: tail(latencies(outs), 0.95), failed: failures(outs), backlogS: lastEnd.Sub(lastDue).Seconds()}, nil
}

// closedChunk is how long one daemon serves the closed loop. The
// registry keeps every run, so a daemon's heap grows for as long as it
// serves, and a collection of a large heap would land in the window or
// not. Fresh daemons every closedChunk keep the heap, and so the
// collection work per request, the same in every window.
const closedChunk = 250 * time.Millisecond

// closedBatch caps the arrivals one closed-loop daemon is given. A
// machine that answers them all within closedChunk starts its next
// daemon early.
const closedBatch = 2048

// closedStep sends the deck's runs back to back from every worker for
// secs seconds, on a fresh daemon every closedChunk (and minOps runs at
// least), and on until it has z.closedWindows windows. Each daemon is
// one window of the phase: its
// qps (judged events streamed per second) and the median and p90 of its
// runs, each timed from send to done line. On the 2-vCPU machine the
// benchmark was tuned on, other tenants slow the loopback HTTP this
// workload runs on by a quarter for a second or two at a time, which a
// median over windows passes by and a total over the loop does not.
func (w *serveWork) closedStep(ctx context.Context, p *phase, idx int, secs float64) error {
	total := time.Duration(secs * 1e9)
	var served time.Duration
	for off := 0; served < total || len(p.windows) < w.cfg.size.closedWindows; {
		reqs := w.arrivals(idx, off, closedBatch)
		var samples []sample
		var wall time.Duration
		err := w.withServer(ctx, func(base string, client *http.Client) error {
			t0 := now()
			samples = w.drive(ctx, client, base, reqs, nil, closedChunk, w.cfg.size.minOps)
			wall = since(t0)
			return nil
		})
		if err != nil {
			return err
		}
		served += wall
		sent := 0
		for i, s := range samples {
			if s.done {
				sent = i + 1
			}
		}
		if sent == 0 {
			return fmt.Errorf("closed loop sent nothing: %v", ctx.Err())
		}
		p.cal.slice(time.Duration(float64(wall) * calibShare))
		w.account(p, samples[:sent])
		var events float64
		var ops []float64
		for _, s := range samples[:sent] {
			switch {
			case !s.done:
				// taken by a worker that found the window over
			case s.ok:
				events += float64(s.events)
				ops = append(ops, ms(s.end.Sub(s.start)))
			default:
				ops = append(ops, math.Inf(1))
			}
		}
		off += sent
		p.opsMs = append(p.opsMs, ops...)
		if p90, err := percentile(ops, 0.9); err == nil {
			p.windows = append(p.windows, window{rate: events / wall.Seconds(), p50: median(ops), p90: p90})
		}
	}
	return nil
}

// account turns a step's sent samples into outcomes, adding them to the
// phase's attempted and failed counts and status-class counters.
func (w *serveWork) account(p *phase, samples []sample) []outcome {
	outs := make([]outcome, 0, len(samples))
	for _, s := range samples {
		if !s.done {
			continue
		}
		outs = append(outs, outcome{ms: ms(s.end.Sub(s.due)), ok: s.ok})
		class := "serve.status_5xx"
		switch {
		case s.status == 0:
			class = ""
		case s.status < 300:
			class = "serve.status_2xx"
		case s.status == 429:
			class = "serve.status_429"
		case s.status == 503:
			class = "serve.status_503"
		case s.status < 500:
			class = "serve.status_4xx"
		}
		if class != "" {
			p.layer[class]++
		}
	}
	p.attempted += len(outs)
	p.failed += failures(outs)
	return outs
}

// serveLayer records the nominal step's serve-layer latencies, all from
// due time. A run that failed counts as infinitely slow. Generator lag
// is how late a worker that slept until the due time woke; conn wait is
// how long an arrival that found every worker busy waited for one. Each
// arrival counts in both, as 0 in the one that does not apply, so both
// have one sample per arrival and each percentile name keeps its
// meaning from run to run.
func (w *serveWork) serveLayer(p *phase, samples []sample) {
	var run, ttfe, lag, wait, ttfb, stream []float64
	var body, events float64
	for _, s := range samples {
		inf := math.Inf(1)
		total, first, rest := inf, inf, inf
		if s.ok {
			total, first, rest = ms(s.end.Sub(s.due)), ms(s.firstEvent.Sub(s.due)), ms(s.end.Sub(s.header))
		}
		late := ms(s.start.Sub(s.due))
		if s.slept {
			lag, wait = append(lag, late), append(wait, 0)
		} else {
			lag, wait = append(lag, 0), append(wait, late)
		}
		run, ttfe, stream = append(run, total), append(ttfe, first), append(stream, rest)
		ttfb = append(ttfb, ms(s.header.Sub(s.start)))
		body += float64(s.bodyBytes)
		events += float64(s.events)
	}
	for _, m := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"serve.run_p50_ms", run, 0.5},
		{"serve.run_p95_ms", run, 0.95},
		{"serve.ttfe_p50_ms", ttfe, 0.5},
		{"serve.gen_lag_ms_p95", lag, 0.95},
		{"serve.conn_wait_ms_p50", wait, 0.5},
		{"serve.conn_wait_ms_p95", wait, 0.95},
		{"serve.ttfb_ms_p50", ttfb, 0.5},
		{"serve.stream_ms_p50", stream, 0.5},
	} {
		v, err := percentile(m.xs, m.p)
		if err != nil {
			// Too short a step for this percentile: report 0, as for a
			// layer the run does not exercise, never a lower percentile.
			fmt.Fprintf(w.log, "serve_mix: %s not measured: %v\n", m.name, err)
		}
		p.layer[m.name] = v
	}
	p.layer["serve.bytes_per_event"] = body / max(events, 1)
}
