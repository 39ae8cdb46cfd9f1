package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"unicode/utf8"

	"repro/internal/dataset"
)

// InferenceOptions carries the evaluation-time knobs of §IV.
type InferenceOptions struct {
	// DownsampleFactor degrades the question image by the given integer
	// factor before the model sees it (1 = original resolution); the
	// §IV-B study uses 8 and 16.
	DownsampleFactor int
}

// Model is anything that can answer a benchmark question: the simulated
// VLMs of internal/vlm and the agent system of internal/agent both
// implement it. Implementations must be safe for concurrent Answer
// calls; everything in this repository is read-only after construction.
type Model interface {
	Name() string
	Answer(q *dataset.Question, opts InferenceOptions) string
}

// QuestionResult records one (model, question) outcome.
type QuestionResult struct {
	QuestionID string
	Category   dataset.Category
	Response   string
	Correct    bool
}

// Report aggregates Pass@1 over a benchmark run.
type Report struct {
	ModelName string
	Results   []QuestionResult
}

// Pass1 returns overall Pass@1.
func (r *Report) Pass1() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	c := 0
	for _, q := range r.Results {
		if q.Correct {
			c++
		}
	}
	return float64(c) / float64(len(r.Results))
}

// Pass1ByCategory returns Pass@1 per discipline.
func (r *Report) Pass1ByCategory() map[dataset.Category]float64 {
	total := make(map[dataset.Category]int)
	correct := make(map[dataset.Category]int)
	for _, q := range r.Results {
		total[q.Category]++
		if q.Correct {
			correct[q.Category]++
		}
	}
	out := make(map[dataset.Category]float64, len(total))
	for c, t := range total {
		out[c] = float64(correct[c]) / float64(t)
	}
	return out
}

// Runner evaluates models over a benchmark with a judge. Every entry
// point is a scheduler plus a sink handed to run, the one place this
// package composes the staged pipeline (pipeline.go): the scheduler
// issues (model, question) events, Inference and JudgeStage run on the
// worker pool, and the sink collects results in canonical order. A
// static run is a shard stream (EvaluateShardsContext) whose shards
// each run as one model-major grid, and a whole benchmark is its
// one-shard case; an adaptive run (EvaluateAdaptiveContext) swaps in a
// dynamic scheduler.
//
// Workers sizes the worker pool:
//
//	<= 0 auto: runtime.GOMAXPROCS(0) workers (the zero value)
//	== 1 serial
//	> 1  that many pooled worker goroutines
//
// Results are deterministic regardless of Workers: every stochastic
// decision draws from an rng stream keyed by (model, question, stage),
// never from shared generator state, and results land in question order.
// A parallel run therefore produces byte-identical reports to a serial
// one (see TestTableIIDeterministicAcrossWorkers).
type Runner struct {
	Judge Judge
	Opts  InferenceOptions
	// Workers bounds concurrent question evaluations; see the type doc.
	Workers int
	// Observer, when non-nil, receives every completed event in
	// deterministic question order — the metrics/tracing seam. See the
	// Observer interface for the cancellation semantics.
	Observer Observer
}

// EffectiveWorkers normalizes the Workers knob: zero or negative means
// auto (GOMAXPROCS), positive is taken as-is.
func (r Runner) EffectiveWorkers() int {
	if r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// run evaluates every event sched issues and hands each to sink in
// canonical order, in a reorder ring borrowed from ring (nil: the run's
// own), judging through memo when it is set. It is the only place this
// package builds a Pipeline.
func (r Runner) run(ctx context.Context, sched ItemScheduler, sink Sink, ring *reorderRing, memo *verdictMemo) error {
	p := &Pipeline{
		Scheduler: sched,
		Infer:     modelInference{opts: r.Opts},
		Judge:     judgeStage{judge: r.Judge},
		Sink:      sink,
		Observer:  r.Observer,
		Workers:   r.EffectiveWorkers(),
		ring:      ring,
		memo:      memo,
	}
	return p.Run(ctx)
}

// Evaluate runs one model over the benchmark.
func (r Runner) Evaluate(m Model, b *dataset.Benchmark) *Report {
	//lint:ignore errdrop context.Background never cancels, so the only possible error is nil
	rep, _ := r.EvaluateContext(context.Background(), m, b)
	return rep
}

// EvaluateContext runs one model over the benchmark with cooperative
// cancellation. On cancel it returns ctx.Err() together with a partial
// report holding a consistent prefix of the question order; every
// result present is byte-identical to the full run's.
func (r Runner) EvaluateContext(ctx context.Context, m Model, b *dataset.Benchmark) (*Report, error) {
	out, err := r.EvaluateAllContext(ctx, []Model{m}, b)
	return out[0], err
}

// sizeResults makes room for n results in rs, keeping those it holds:
// it reallocates, at exactly n, only when the capacity cannot hold
// them. A shard stream calls it with the fold's size on every shard,
// so the one reallocation happens at the first.
func sizeResults(rs []QuestionResult, n int) []QuestionResult {
	if cap(rs) >= n {
		return rs
	}
	return append(make([]QuestionResult, 0, n), rs...)
}

// EvaluateAll runs every model and returns reports in input order. The
// (model, question) grid is flattened into one task list so the worker
// pool stays busy across model boundaries — a cheap model finishing
// early does not idle its workers while an expensive one lags. The
// models' names must be distinct: EvaluateAllContext reports a
// duplicate as an error, and EvaluateAll, with no error to return,
// leaves every report's Results empty.
func (r Runner) EvaluateAll(models []Model, b *dataset.Benchmark) []*Report {
	//lint:ignore errdrop context.Background never cancels, and the one other error, a duplicate model name, leaves the reports empty as documented
	out, _ := r.EvaluateAllContext(context.Background(), models, b)
	return out
}

// EvaluateAllContext is EvaluateAll with cooperative cancellation. On
// cancel the returned reports hold a consistent prefix of the
// flattened model-major order: models before the cut-off are complete,
// the model at the cut-off has a prefix of its questions, later models
// are empty.
func (r Runner) EvaluateAllContext(ctx context.Context, models []Model, b *dataset.Benchmark) ([]*Report, error) {
	// One header block and one backing array for the whole grid instead
	// of two allocations per model. The three-index slice expressions
	// cap each report's window at its own nq results, so an append past
	// a model's share can never bleed into its neighbour's window.
	nq := len(b.Questions)
	out := make([]*Report, len(models))
	headers := make([]Report, len(models))
	backing := make([]QuestionResult, len(models)*nq)
	for i := range models {
		out[i] = &headers[i]
		out[i].Results = backing[i*nq : i*nq : (i+1)*nq]
	}
	err := r.EvaluateAllInto(ctx, models, b, out)
	return out, err
}

// EvaluateAllInto is EvaluateAllContext writing into caller-retained
// reports (one per model, same order): each report's ModelName is
// overwritten and its Results refilled in place when capacity fits, so
// a grid evaluated repeatedly — resolution sweeps, benchmark loops —
// reuses its QuestionResult buffers across runs. The benchmark runs as
// a one-shard stream that knows its size.
func (r Runner) EvaluateAllInto(ctx context.Context, models []Model, b *dataset.Benchmark, reports []*Report) error {
	return r.EvaluateShardsContext(ctx, models, func(yield func(dataset.Shard) error) error {
		return yield(dataset.Shard{Questions: b.Questions, Total: len(b.Questions)})
	}, reports)
}

// FormatTableII renders reports in the layout of the paper's Table II:
// one row per model, Pass@1 per category plus overall, for the
// with-choice and without-choice runs side by side.
func FormatTableII(withChoice, noChoice []*Report) string {
	var sb strings.Builder
	cats := dataset.Categories()
	sb.WriteString(fmt.Sprintf("%-20s |", "Model"))
	for _, c := range cats {
		sb.WriteString(fmt.Sprintf(" %-7s", truncate(c.Short(), 7)))
	}
	sb.WriteString(" | all   ")
	if noChoice != nil {
		sb.WriteString("||")
		for _, c := range cats {
			sb.WriteString(fmt.Sprintf(" %-7s", truncate(c.Short(), 7)))
		}
		sb.WriteString(" | all")
	}
	sb.WriteString("\n")
	for i, rep := range withChoice {
		sb.WriteString(fmt.Sprintf("%-20s |", rep.ModelName))
		by := rep.Pass1ByCategory()
		for _, c := range cats {
			sb.WriteString(fmt.Sprintf(" %.2f   ", by[c]))
		}
		sb.WriteString(fmt.Sprintf("| %.2f  ", rep.Pass1()))
		if noChoice != nil && i < len(noChoice) {
			sb.WriteString("||")
			byN := noChoice[i].Pass1ByCategory()
			for _, c := range cats {
				sb.WriteString(fmt.Sprintf(" %.2f   ", byN[c]))
			}
			sb.WriteString(fmt.Sprintf("| %.2f", noChoice[i].Pass1()))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// truncate shortens s to at most n runes. Truncating by bytes could
// split a multi-byte rune in a category short name and emit invalid
// UTF-8 into the table.
func truncate(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	rs := []rune(s)
	return string(rs[:n])
}
