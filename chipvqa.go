// Package chipvqa is the public API of the ChipVQA reproduction: the
// 142-question chip-design VQA benchmark of Yang et al. (DATE 2025),
// the twelve simulated vision-language models calibrated to the paper's
// Table II, the hybrid evaluation judge, the §IV-B resolution study and
// the §IV-C agent study.
//
// Quick start:
//
//	suite, err := chipvqa.NewSuite()
//	...
//	report := suite.Evaluate("GPT4o")
//	fmt.Printf("GPT-4o Pass@1: %.2f\n", report.Pass1())
//
// The full experiment set (every table and figure in the paper) is
// regenerated by the benchmarks in bench_test.go and by cmd/chipvqa.
package chipvqa

import (
	"context"
	"fmt"
	"image"
	"io"

	"repro/internal/adaptive"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/runspec"
	"repro/internal/serve"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// Re-exported core types, so downstream code only imports this package.
type (
	// Benchmark is an ordered question collection.
	Benchmark = dataset.Benchmark
	// Question is one VQA triplet.
	Question = dataset.Question
	// Category is a chip-design discipline.
	Category = dataset.Category
	// Report aggregates Pass@1 results of one model run.
	Report = eval.Report
	// Model answers benchmark questions.
	Model = eval.Model
	// InferenceOptions carries evaluation-time knobs.
	InferenceOptions = eval.InferenceOptions
	// Scene is a question's ground-truth visual description.
	Scene = visual.Scene
	// Event is the per-question unit flowing through the staged
	// evaluation pipeline; Observers receive completed events in
	// deterministic question order.
	Event = eval.Event
	// Observer is the evaluation pipeline's metrics/tracing seam.
	Observer = eval.Observer
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = eval.ObserverFunc
	// Generator is a discipline's entry in the dataset assembly
	// registry: its fixed Table I questions and ExtraAt(seed, i), the
	// extended-question primitive every extended build loops over.
	Generator = dataset.Generator
)

// Generators lists the registered discipline generators in canonical
// Table I category order — the registry internal/core assembles every
// collection from.
func Generators() []Generator { return dataset.Generators() }

// The five disciplines.
const (
	Digital      = dataset.Digital
	Analog       = dataset.Analog
	Architecture = dataset.Architecture
	Manufacture  = dataset.Manufacture
	Physical     = dataset.Physical
)

// Categories returns the five disciplines in canonical (paper) order —
// the order every per-category report iterates in, so output never
// depends on map iteration.
func Categories() []Category { return dataset.Categories() }

// Suite bundles the benchmark, its challenge variant, and the calibrated
// model zoo.
type Suite struct {
	Benchmark *Benchmark
	// ChallengeSet is the §IV-A variant with every multiple-choice
	// question rewritten as short answer.
	ChallengeSet *Benchmark
	// Workers selects the evaluation engine parallelism: 0 (the
	// default) and negative mean auto — runtime.GOMAXPROCS(0) pooled
	// workers; 1 forces the serial engine; larger values set the pool
	// size explicitly. Reports are byte-identical at every setting —
	// the engine guarantees serial/parallel equivalence.
	Workers int
	// Observer, when non-nil, receives every completed evaluation
	// event in deterministic question order — the staged pipeline's
	// metrics/tracing seam (see eval.Observer).
	Observer Observer
	zoo      *vlm.Zoo
}

// NewSuite builds the benchmark and calibrates the models.
func NewSuite() (*Suite, error) {
	b, err := core.BuildBenchmark()
	if err != nil {
		return nil, err
	}
	return &Suite{
		Benchmark:    b,
		ChallengeSet: b.Challenge(),
		zoo:          vlm.NewZoo(b),
	}, nil
}

// MustNewSuite builds a suite or panics.
func MustNewSuite() *Suite {
	s, err := NewSuite()
	if err != nil {
		panic(err)
	}
	return s
}

// ModelNames lists the twelve Table II models in row order.
func (s *Suite) ModelNames() []string {
	var out []string
	for _, m := range s.zoo.Models() {
		out = append(out, m.Name())
	}
	return out
}

// Models returns the twelve Table II models in row order.
func (s *Suite) Models() []Model { return s.zoo.EvalModels() }

// Model returns a model by Table II name.
func (s *Suite) Model(name string) (Model, error) {
	m, ok := s.zoo.Model(name)
	if !ok {
		return nil, fmt.Errorf("chipvqa: unknown model %q (see ModelNames)", name)
	}
	return m, nil
}

// Evaluate runs one model over the standard collection.
func (s *Suite) Evaluate(modelName string) (*Report, error) {
	return s.evaluateContext(context.Background(), modelName, s.Benchmark, 1)
}

// EvaluateChallenge runs one model over the challenge collection.
func (s *Suite) EvaluateChallenge(modelName string) (*Report, error) {
	return s.evaluateContext(context.Background(), modelName, s.ChallengeSet, 1)
}

// EvaluateAtResolution runs one model with images downsampled by the
// given factor (the §IV-B study).
func (s *Suite) EvaluateAtResolution(modelName string, factor int) (*Report, error) {
	return s.evaluateContext(context.Background(), modelName, s.Benchmark, factor)
}

// runner builds the suite's evaluation engine with the suite's worker
// count (eval.Runner shares its convention) and observer.
func (s *Suite) runner(opts eval.InferenceOptions) eval.Runner {
	return eval.Runner{Opts: opts, Workers: s.Workers, Observer: s.Observer}
}

func (s *Suite) evaluateContext(ctx context.Context, modelName string, b *Benchmark, factor int) (*Report, error) {
	m, err := s.Model(modelName)
	if err != nil {
		return nil, err
	}
	r := s.runner(eval.InferenceOptions{DownsampleFactor: factor})
	return r.EvaluateContext(ctx, m, b)
}

// TableII runs every model over both collections and returns the two
// report sets in Table II row order. Each collection's 12x142
// (model, question) grid is evaluated on the worker pool.
func (s *Suite) TableII() (withChoice, noChoice []*Report) {
	r := s.runner(eval.InferenceOptions{})
	models := s.zoo.EvalModels()
	return r.EvaluateAll(models, s.Benchmark), r.EvaluateAll(models, s.ChallengeSet)
}

// FormatTableII renders reports in the paper's Table II layout.
func FormatTableII(withChoice, noChoice []*Report) string {
	return eval.FormatTableII(withChoice, noChoice)
}

// NewAgent builds the §IV-C agent system over the named vision tool
// (the paper uses GPT4o).
func (s *Suite) NewAgent(toolName string) (Model, error) {
	tool, ok := s.zoo.Model(toolName)
	if !ok {
		return nil, fmt.Errorf("chipvqa: unknown tool model %q", toolName)
	}
	return agent.New(tool), nil
}

// TableIII runs the agent study: GPT-4o direct versus the agent, on both
// collections, returning the four Pass@1 values in the paper's order
// (with-choice GPT4o, with-choice agent, no-choice GPT4o, no-choice
// agent). A cancelled run returns the context error (partial Pass@1
// values would be misleading, so none are computed).
func (s *Suite) TableIII(ctx context.Context) ([4]float64, error) {
	gpt4o, err := s.Model("GPT4o")
	if err != nil {
		return [4]float64{}, err
	}
	ag, err := s.NewAgent("GPT4o")
	if err != nil {
		return [4]float64{}, err
	}
	r := s.runner(eval.InferenceOptions{})
	models := []Model{gpt4o, ag}
	with, err := r.EvaluateAllContext(ctx, models, s.Benchmark)
	if err != nil {
		return [4]float64{}, err
	}
	without, err := r.EvaluateAllContext(ctx, models, s.ChallengeSet)
	if err != nil {
		return [4]float64{}, err
	}
	return [4]float64{
		with[0].Pass1(),
		with[1].Pass1(),
		without[0].Pass1(),
		without[1].Pass1(),
	}, nil
}

// Extended generates an extended question collection beyond the fixed
// 142 (the paper's future-work direction), with perCategory questions
// per discipline; different seeds give disjoint folds.
func (s *Suite) Extended(seed string, perCategory int) (*Benchmark, error) {
	return core.BuildExtended(seed, perCategory)
}

// Shard is one contiguous window of a streamed collection.
type Shard = dataset.Shard

// StreamExtended generates an extended fold shard by shard without ever
// materialising the whole collection: yield receives shards of
// shardSize questions (the last may be shorter) in canonical
// category-major order, identical question for question to
// Suite.Extended with the same seed. yield runs on the calling
// goroutine while one background goroutine builds the next shard, so
// generation overlaps whatever yield does with the current one. If
// yield keeps no shard, evaluating the shards as they arrive holds at
// most two shards of questions and no per-scene state (the models'
// perception stage keeps nothing between questions), so this is the
// fixed-memory path for 100k+-question folds. The background goroutine
// is stopped and joined before StreamExtended returns, also when yield
// fails.
func StreamExtended(seed string, perCategory, shardSize int, yield func(Shard) error) error {
	return core.StreamExtended(seed, perCategory, shardSize, yield)
}

// Adaptive evaluation re-exports (see internal/adaptive for the IRT
// machinery and DESIGN.md §15 for the math).
type (
	// AdaptiveConfig tunes an adaptive tournament (seed, budgets,
	// stopping thresholds); the zero value picks the defaults.
	AdaptiveConfig = adaptive.Config
	// AdaptiveStanding is one model's final tournament state.
	AdaptiveStanding = adaptive.Standing
	// AdaptiveResult bundles an adaptive run's reports, standings,
	// question counts and rank agreement.
	AdaptiveResult = adaptive.Result
	// AdaptiveCalibration is a fold's calibrated item bank plus the
	// full-grid reference reports behind it.
	AdaptiveCalibration = adaptive.Calibration
	// ItemScheduler is the evaluation pipeline's dynamic-source seam:
	// implementations consume judged outcomes and decide what runs
	// next (adaptive.Tournament is the production implementation).
	ItemScheduler = eval.ItemScheduler
)

// AdaptiveCalibrate builds a calibrated item bank for an extended fold:
// the full zoo is evaluated over the whole fold once (the expensive
// reference grid), the classical item analysis seeds per-question 2PL
// parameters, and the result can back any number of cheap adaptive
// tournaments. The calibration grid runs without the suite observer —
// only tournament events are observable.
func (s *Suite) AdaptiveCalibrate(ctx context.Context, seed string, perCategory int) (*AdaptiveCalibration, error) {
	return runspec.Calibrate(ctx, s.zoo.EvalModels(), seed, perCategory, s.Workers)
}

// Compare runs the paired McNemar test between two models on the
// standard collection, plus a bootstrap confidence interval for each.
// On cancel the context error comes back and no partial statistics are
// computed (the paired test needs both full runs).
func (s *Suite) Compare(ctx context.Context, modelA, modelB string) (eval.McNemarResult, [2]eval.ConfidenceInterval, error) {
	var cis [2]eval.ConfidenceInterval
	ra, err := s.evaluateContext(ctx, modelA, s.Benchmark, 1)
	if err != nil {
		return eval.McNemarResult{}, cis, err
	}
	rb, err := s.evaluateContext(ctx, modelB, s.Benchmark, 1)
	if err != nil {
		return eval.McNemarResult{}, cis, err
	}
	res, err := eval.McNemar(ra, rb)
	if err != nil {
		return eval.McNemarResult{}, cis, err
	}
	cis[0] = ra.BootstrapCI(2000, 0.95)
	cis[1] = rb.BootstrapCI(2000, 0.95)
	return res, cis, nil
}

// Stats computes the Table I statistics of the benchmark.
func (s *Suite) Stats() dataset.Stats { return s.Benchmark.ComputeStats() }

// FormatTableI renders the Table I statistics.
func (s *Suite) FormatTableI() string { return s.Stats().FormatTableI() }

// RenderQuestion rasterises a question's visual, downsampled by the
// given factor when it is above 1. Each call returns a fresh image the
// caller owns and may mutate.
func RenderQuestion(q *Question, downsample int) *image.RGBA {
	img := visual.Render(q.Visual)
	if downsample <= 1 {
		return img
	}
	return visual.Downsample(img, downsample)
}

// SetRenderCacheBudget caps the retained bytes of the shared cache of
// encoded question images that the serve daemon's image endpoint reads;
// cold entries are evicted least-recently-used first once the cap is
// exceeded. 0 (the default) removes the cap.
func SetRenderCacheBudget(n int64) { visual.Default.SetBudget(n) }

// ExportJSON writes the benchmark in the interchange format.
func (s *Suite) ExportJSON(w io.Writer) error { return s.Benchmark.WriteJSON(w) }

// AnswerJudge is the hybrid equivalence judge; the zero value is the
// standard lenient judge, and setting Strict gives exact-match-only
// behaviour (the judge-strictness ablation).
type AnswerJudge = eval.Judge

// Serving layer re-exports (see internal/serve for the HTTP API).
type (
	// Server is the eval-as-a-service HTTP daemon.
	Server = serve.Server
	// ServerConfig assembles a Server.
	ServerConfig = serve.Config
	// ServerCollection is one named question set a Server exposes.
	ServerCollection = serve.Collection
)

// NewServer builds the HTTP daemon over this suite's benchmark,
// challenge set and model zoo. Any zero Config field that the suite
// can supply (Benchmark, Challenge, Models) is filled in; scheduling
// knobs and extra collections pass through unchanged.
func (s *Suite) NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Benchmark == nil {
		cfg.Benchmark = s.Benchmark
	}
	if cfg.Challenge == nil {
		cfg.Challenge = s.ChallengeSet
	}
	if len(cfg.Models) == 0 {
		cfg.Models = s.zoo.EvalModels()
	}
	return serve.New(cfg)
}
