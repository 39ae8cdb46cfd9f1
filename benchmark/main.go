// Command benchmark measures the ChipVQA reproduction end to end and
// layer by layer. It runs one workload per invocation:
//
//	go run . -workload table2|stream_16x|adaptive_bank|serve_mix \
//	         [-seed S] [-seconds N] [-trace 0|1] [-spans FILE]
//	go run . -workload NAME -check        # full-size correctness checks, no timing
//	go run . spread FILE...               # spread of saved result lines (stability.sh)
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones; with -trace 1 the run measures half its time
// untraced and half traced, and reports the per-layer metrics. The
// exit status is 0 on success, 1 when a correctness check fails or the
// run errors, and 2 on bad usage. README.md describes every workload
// and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	chipvqa "repro"
	"repro/internal/eval"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md maps each to its meaning per
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"iter_p50_ms", "ms"},
	{"iter_p90_ms", "ms"},
	{"allocs_per_op", "count"},
	{"heap_live_mib", "MiB"},
}

// perLayer are the traced run's metrics, one group per module. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"eval.events", "count"},
	{"eval.worker_busy_share", "fraction"},
	{"eval.judge_ns_mean", "ns"},
	{"eval.reorder_wait_us_p50", "us"},
	{"eval.reorder_wait_us_p99", "us"},
	{"eval.deliver_ns_mean", "ns"},
	{"eval.pipeline_start_us_p50", "us"},
	{"vlm.answers", "count"},
	{"vlm.answer_ns_mean_1x", "ns"},
	{"vlm.answer_ns_mean_8x", "ns"},
	{"vlm.answer_ns_mean_16x", "ns"},
	{"vlm.busy_share", "fraction"},
	{"visual.lookups", "count"},
	{"visual.hit_ratio", "fraction"},
	{"visual.evictions", "count"},
	{"visual.peak_bytes", "B"},
	{"core.shard_gen_ms_p50", "ms"},
	{"core.gen_busy_share", "fraction"},
	{"gen.digital.us_per_q", "us"},
	{"gen.analog.us_per_q", "us"},
	{"gen.arch.us_per_q", "us"},
	{"gen.manuf.us_per_q", "us"},
	{"gen.phys.us_per_q", "us"},
	{"dataset.pack_encode_ms", "ms"},
	{"dataset.pack_decode_ms", "ms"},
	{"dataset.pack_bytes", "B"},
	{"adaptive.next_ns_mean", "ns"},
	{"adaptive.record_ns_mean", "ns"},
	{"adaptive.wait_share", "fraction"},
	{"adaptive.questions_asked", "count"},
	{"adaptive.rank_agreement", "fraction"},
	{"serve.run_p50_ms", "ms"},
	{"serve.run_p95_ms", "ms"},
	{"serve.ttfe_p50_ms", "ms"},
	{"serve.max_rate_rps", "1/s"},
	{"serve.gen_lag_ms_p95", "ms"},
	{"serve.conn_wait_ms_p50", "ms"},
	{"serve.conn_wait_ms_p95", "ms"},
	{"serve.ttfb_ms_p50", "ms"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.bytes_per_event", "B"},
	{"serve.status_2xx", "count"},
	{"serve.status_4xx", "count"},
	{"serve.status_429", "count"},
	{"serve.status_503", "count"},
	{"serve.status_5xx", "count"},
	{"serve.pool_queued_max", "count"},
	{"serve.sessions_active_max", "count"},
	{"serve.runs_retained", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.overhead", "fraction"},
}

// sizes fixes how much work each workload does per unit. full is what
// the command runs; the smoke test runs tiny.
type sizes struct {
	minOps         int           // timed iterations a phase needs, so p90 has 10 samples beyond it
	closedWindows  int           // serve_mix closed-loop windows a phase needs
	setupWindows   int           // least set-up windows behind setup_s
	setupWindow    time.Duration // least set-up time per window (one repetition at least)
	setupSeconds   float64       // least set-up time over all windows
	calibrate      bool          // scale timings by the calibration process (calib.go)
	table2Warmup   int           // untimed sweeps before table2 timing
	foldPerCat     int           // stream_16x fold size per discipline
	shardSize      int           // stream_16x questions per shard
	bankPerCat     int           // adaptive_bank calibration fold per discipline
	adaptiveWarmup int           // untimed tournaments before adaptive_bank timing
	packPerCat     int           // serve_mix packed collection per discipline
}

var full = sizes{
	minOps:         100,
	closedWindows:  9,
	setupWindows:   9,
	setupWindow:    100 * time.Millisecond,
	setupSeconds:   1,
	calibrate:      true,
	table2Warmup:   50,
	foldPerCat:     2000,
	shardSize:      1000,
	bankPerCat:     200,
	adaptiveWarmup: 5,
	packPerCat:     2000,
}

// config is one invocation.
type config struct {
	workload string
	seed     string
	seconds  float64
	trace    bool
	spans    string
	check    bool
	size     sizes
	// faulty wraps the zoo so one response in the measured phase is
	// wrong; the smoke test uses it to prove the checks fire.
	faulty bool
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, out io.Writer) (*report, error)
}

var workloads = []workload{
	{"table2", runTable2},
	{"stream_16x", runStream},
	{"adaptive_bank", runAdaptive},
	{"serve_mix", runServe},
}

// phase is what one timed phase measured.
type phase struct {
	opsMs     []float64 // per-iteration latency
	work      float64   // units behind qps and allocs_per_op
	windows   []window  // serve_mix's closed-loop daemons, when qps and iterations come from them
	wall      time.Duration
	mem       memDelta
	heapMiB   float64
	attempted int
	failed    int
	digest    string
	layer     map[string]float64
	cal       *calibrator // untraced phases only
}

// report is a workload's whole run: set-up, then one phase, or an
// untraced and a traced phase with -trace 1.
type report struct {
	setupS    []float64 // per set-up window, scaled (timeSetup)
	setupRawS []float64 // the same, unscaled
	plain     *phase
	traced    *phase
	tr        *tracer  // the traced phase's spans
	problems  []string // failed correctness checks
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// memDelta is the runtime's allocation and GC activity over a phase.
type memDelta struct {
	mallocs, allocBytes, pauseNs uint64
	gcs                          uint32
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memStats()
	return memDelta{
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		pauseNs:    m1.PauseTotalNs - m0.PauseTotalNs,
		gcs:        m1.NumGC - m0.NumGC,
	}
}

// heapLiveMiB collects garbage and returns the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / (1 << 20)
}

// timeSetup measures set-up in windows. A window runs build until its
// repetitions have taken z.setupWindow (once at least), and then a
// calibration slice half as long measures the machine speed over the
// same seconds (calib.go). The window's value is the median of its
// repetitions scaled by that speed. On the machine the benchmark was
// tuned on, the speed of a set-up of a few milliseconds wanders by a
// fifth between windows a second apart, in one process as much as
// across processes, so setup_s is the median over at least
// z.setupWindows windows spread over at least z.setupSeconds. It
// returns the last build's value.
func timeSetup[T any](ctx context.Context, z sizes, rep *report, build func() (T, error)) (T, error) {
	var v T
	var cal *calibrator
	if z.calibrate {
		var err error
		if cal, err = startCalibrator(ctx); err != nil {
			return v, err
		}
	}
	var spent time.Duration
	for len(rep.setupS) < z.setupWindows || spent.Seconds() < z.setupSeconds {
		var reps []float64
		var elapsed time.Duration
		for len(reps) == 0 || elapsed < z.setupWindow {
			runtime.GC() // every repetition starts from the same heap state
			t0 := now()
			var err error
			if v, err = build(); err != nil {
				//lint:ignore errdrop the set-up error is the one worth reporting
				_ = cal.stop()
				return v, err
			}
			d := since(t0)
			reps = append(reps, d.Seconds())
			elapsed += d
		}
		spent += elapsed
		raw := median(reps)
		rep.setupRawS = append(rep.setupRawS, raw)
		rep.setupS = append(rep.setupS, raw*cal.slice(elapsed/2))
	}
	return v, cal.stop()
}

// phaseSeconds splits the run time between the untraced and the traced
// phase.
func phaseSeconds(cfg config) float64 {
	if cfg.trace {
		return cfg.seconds / 2
	}
	return cfg.seconds
}

// done reports whether a phase that started at t0 has measured enough.
func done(cfg config, t0 time.Time, ops int) bool {
	return ops >= cfg.size.minOps && since(t0).Seconds() >= phaseSeconds(cfg)
}

// zooOf returns the suite's evaluated models in Table II order.
func zooOf(s *chipvqa.Suite) ([]eval.Model, error) {
	names := s.ModelNames()
	out := make([]eval.Model, len(names))
	for i, n := range names {
		m, err := s.Model(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// window is a stretch of a phase measured on its own: its throughput
// and the median and p90 of its iterations.
type window struct {
	rate, p50, p90 float64
}

// endToEndValues computes the end-to-end metrics of an untraced phase,
// unscaled. A phase measured in windows reports, for qps and the
// iteration times, the median over its windows.
func endToEndValues(setupS []float64, p *phase) (map[string]float64, error) {
	p50, p90 := median(p.opsMs), 0.0
	if len(p.windows) > 0 {
		var p50s, p90s []float64
		for _, w := range p.windows {
			p50s, p90s = append(p50s, w.p50), append(p90s, w.p90)
		}
		p50, p90 = median(p50s), median(p90s)
	} else {
		var err error
		if p90, err = percentile(p.opsMs, 0.9); err != nil {
			return nil, fmt.Errorf("iter_p90_ms: %w", err)
		}
	}
	return map[string]float64{
		"setup_s":       median(setupS),
		"qps":           rate(p),
		"iter_p50_ms":   p50,
		"iter_p90_ms":   p90,
		"allocs_per_op": float64(p.mem.mallocs) / p.work,
		"heap_live_mib": p.heapMiB,
	}, nil
}

// scaled returns the end-to-end values at the reference machine speed
// (calib.go): times shrink and rates grow when the run measured the
// machine slower than the reference. Set-up windows come scaled from
// timeSetup; the phase's metrics are scaled by the speed measured
// during the phase.
func scaled(v map[string]float64, speed float64) map[string]float64 {
	out := make(map[string]float64, len(v))
	for k, x := range v {
		out[k] = x
	}
	out["iter_p50_ms"] *= speed
	out["iter_p90_ms"] *= speed
	out["qps"] /= speed
	return out
}

// perLayerValues completes a traced phase's layer map with the runtime
// and tracing-overhead metrics.
func perLayerValues(plain, traced *phase) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range traced.layer {
		v[k] = x
	}
	v["runtime.gc_cycles"] = float64(traced.mem.gcs)
	v["runtime.gc_pause_ms"] = float64(traced.mem.pauseNs) / 1e6
	v["runtime.alloc_bytes_per_op"] = float64(traced.mem.allocBytes) / traced.work
	v["trace.overhead"] = 1 - rate(traced)/rate(plain)
	return v
}

// rate is the phase's throughput: qps units over the wall time the
// workload ran, calibration slices excluded, or the median over its
// windows.
func rate(p *phase) float64 {
	if len(p.windows) > 0 {
		rates := make([]float64, len(p.windows))
		for i, w := range p.windows {
			rates[i] = w.rate
		}
		return median(rates)
	}
	wall := p.wall
	if p.cal != nil {
		wall -= p.cal.paused
	}
	return p.work / wall.Seconds()
}

// buildResult turns a workload report into the result line.
func buildResult(cfg config, rep *report) (result, error) {
	res := result{Correct: len(rep.problems) == 0, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, map[string]float64(nil)
	var err error
	if cfg.trace {
		defs, vals = perLayer, perLayerValues(rep.plain, rep.traced)
	} else if vals, err = endToEndValues(rep.setupS, rep.plain); err != nil {
		return res, err
	} else {
		vals = scaled(vals, rep.plain.cal.speed())
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, p := range []*phase{rep.plain, rep.traced} {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	return res, nil
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a bad command line (exit status 2).
var errUsage = errors.New("usage")

func parse(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: full}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: table2, stream_16x, adaptive_bank or serve_mix")
	fs.StringVar(&cfg.seed, "seed", "bench", "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "seconds each run measures")
	fs.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics in a traced run")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	fs.BoolVar(&cfg.check, "check", false, "run the full-size correctness checks without timing")
	if err := fs.Parse(args); err != nil {
		return cfg, errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return cfg, errUsage
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", trace)
		return cfg, errUsage
	}
	cfg.trace = trace == 1
	if cfg.spans != "" && !cfg.trace {
		fmt.Fprintln(stderr, "benchmark: -spans needs -trace 1")
		return cfg, errUsage
	}
	if cfg.seconds <= 0 || cfg.seed == "" {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -seed non-empty")
		return cfg, errUsage
	}
	return cfg, nil
}

// run executes one command line and returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "spread" {
		return runSpread(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "kernel" {
		if err := serveKernel(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	cfg, err := parse(args, stderr)
	if err != nil {
		return 2
	}
	return runConfig(ctx, cfg, stdout, stderr)
}

func runConfig(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", cfg.workload)
		return 2
	}
	rep, err := w.run(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		fmt.Fprintf(stderr, "benchmark: %s: untraced digest %s, traced digest %s\n", cfg.workload, rep.plain.digest, rep.traced.digest)
		if rep.plain.digest != rep.traced.digest {
			rep.fail("traced digest differs from the untraced one")
		}
		if cfg.spans != "" {
			if err := rep.tr.write(cfg.spans); err != nil {
				fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
				return 1
			}
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", cfg.workload, p)
	}
	if cfg.check {
		if len(rep.problems) > 0 {
			return 1
		}
		fmt.Fprintf(stdout, "%s: all checks passed\n", cfg.workload)
		return 0
	}
	res, err := buildResult(cfg, rep)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !cfg.trace {
		raw, err := endToEndValues(rep.setupRawS, rep.plain)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
			return 1
		}
		fmt.Fprintf(stderr, "benchmark: %s: machine speed %.4f of reference; unscaled setup_s %.6g (%d windows) qps %.6g iter_p50_ms %.6g iter_p90_ms %.6g\n",
			cfg.workload, rep.plain.cal.speed(), raw["setup_s"], len(rep.setupRawS), raw["qps"], raw["iter_p50_ms"], raw["iter_p90_ms"])
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
