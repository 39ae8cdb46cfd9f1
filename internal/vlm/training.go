package vlm

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
)

// TrainingConfig tunes the simulated domain-adaptation study — the
// paper's future-work direction ("ChipVQA-oriented dataset collection,
// VLM training and development, targeting a low-cost yet effective
// open-source foundation model"). The model of adaptation: instruction
// tuning on in-domain VQA raises a model's solve rate per discipline in
// proportion to its training exposure, with diminishing returns, and can
// never teach what the backbone fundamentally lacks (the gain is capped
// by the headroom scaled by MaxGain).
type TrainingConfig struct {
	// MaxGainMC/SA bound the absolute Pass@1 gain per category at full
	// exposure, scaled by the model's headroom (1 - base rate).
	MaxGainMC float64
	MaxGainSA float64
	// SaturationExamples is the per-category training-set size at which
	// exposure reaches ~63% of maximum (exponential saturation).
	SaturationExamples int
}

// DefaultTraining returns a conservative adaptation model: a fully
// saturated category gains at most 25% of its missing headroom on
// multiple choice and 15% on short answer.
func DefaultTraining() TrainingConfig {
	return TrainingConfig{MaxGainMC: 0.25, MaxGainSA: 0.15, SaturationExamples: 20}
}

// FineTuned is a simulated domain-adapted variant of a base model.
type FineTuned struct {
	base    *SimulatedVLM
	cfg     TrainingConfig
	tag     string
	boostMC [dataset.NumCategories]float64
	boostSA [dataset.NumCategories]float64
	// Exposure per category in [0,1], for reporting.
	Exposure [dataset.NumCategories]float64
}

var _ eval.Model = (*FineTuned)(nil)

// FineTune adapts the base model on a training collection. The training
// questions only set per-category exposure; the tuned model is evaluated
// on *held-out* questions, so gains reflect generalisation within a
// discipline, not memorisation.
func FineTune(base *SimulatedVLM, train *dataset.Benchmark, cfg TrainingConfig) *FineTuned {
	ft := &FineTuned{base: base, cfg: cfg, tag: train.Name}
	counts := make(map[dataset.Category]int)
	for _, q := range train.Questions {
		counts[q.Category]++
	}
	p := base.Profile()
	for _, c := range dataset.Categories() {
		exposure := saturate(counts[c], cfg.SaturationExamples)
		ft.Exposure[c] = exposure
		ft.boostMC[c] = cfg.MaxGainMC * exposure * (1 - p.WithChoice[c])
		ft.boostSA[c] = cfg.MaxGainSA * exposure * (1 - p.NoChoice[c])
	}
	return ft
}

// saturate maps a sample count to exposure with exponential diminishing
// returns: 1 - exp(-n/k).
func saturate(n, k int) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	return 1 - math.Exp(-float64(n)/float64(k))
}

// Name implements eval.Model.
func (f *FineTuned) Name() string {
	return fmt.Sprintf("%s+tuned(%s)", f.base.Name(), f.tag)
}

// Answer implements eval.Model: the tuned model answers like its base,
// except that on questions the base would miss, the learned in-domain
// skill solves them with the per-category boost probability.
func (f *FineTuned) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	baseResp := f.base.Answer(q, opts)
	if (eval.Judge{}).Correct(q, baseResp) {
		return baseResp
	}
	boost := f.boostSA[q.Category]
	if q.Type == dataset.MultipleChoice {
		boost = f.boostMC[q.Category]
	}
	if rng.Bernoulli(boost, "finetune", f.base.Name(), f.tag, q.ID) {
		return f.base.respond(q, questionAnswers(q), entry(decSolve))
	}
	return baseResp
}

// LearningCurvePoint is one measurement of the adaptation study.
type LearningCurvePoint struct {
	TrainPerCategory int
	Pass1            float64
}

// LearningCurve fine-tunes the base model on nested training sets of
// increasing size (drawn from trainPool) and evaluates each tuned model
// on the held-out test collection.
func LearningCurve(base *SimulatedVLM, trainPool, test *dataset.Benchmark,
	sizes []int, cfg TrainingConfig) []LearningCurvePoint {
	byCat := trainPool.ByCategory()
	runner := eval.Runner{}
	out := make([]LearningCurvePoint, 0, len(sizes))
	for _, size := range sizes {
		sub := &dataset.Benchmark{Name: fmt.Sprintf("train-%d", size)}
		for _, c := range dataset.Categories() {
			qs := byCat[c]
			n := size
			if n > len(qs) {
				n = len(qs)
			}
			sub.Questions = append(sub.Questions, qs[:n]...)
		}
		tuned := FineTune(base, sub, cfg)
		rep := runner.Evaluate(tuned, test)
		out = append(out, LearningCurvePoint{TrainPerCategory: size, Pass1: rep.Pass1()})
	}
	return out
}
