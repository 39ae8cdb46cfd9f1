package vlm

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
)

// Zoo holds the twelve simulated models calibrated against a specific
// benchmark instance. Calibration fixes, per model and per category,
// exactly which questions each model answers correctly in each format so
// that the measured Pass@1 lands on the paper's Table II values up to
// rounding — while the perception stage still degrades answers
// mechanically at reduced resolution and the agent study can reuse the
// same decisions.
type Zoo struct {
	models []*SimulatedVLM
}

// NewZoo calibrates the full Table II model list against the benchmark.
func NewZoo(b *dataset.Benchmark) *Zoo {
	z := &Zoo{}
	for _, p := range Profiles() {
		z.models = append(z.models, calibrate(p, b))
	}
	return z
}

// Models returns the simulated models in Table II row order.
func (z *Zoo) Models() []*SimulatedVLM { return z.models }

// EvalModels returns the models as eval.Model values.
func (z *Zoo) EvalModels() []eval.Model {
	out := make([]eval.Model, len(z.models))
	for i, m := range z.models {
		out[i] = m
	}
	return out
}

// Model returns the named model.
func (z *Zoo) Model(name string) (*SimulatedVLM, bool) {
	for _, m := range z.models {
		if m.profile.Name == name {
			return m, true
		}
	}
	return nil, false
}

// calibrate derives per-question decisions from the profile's Table II
// targets over the given benchmark.
func calibrate(p Profile, b *dataset.Benchmark) *SimulatedVLM {
	m := &SimulatedVLM{
		profile:    p,
		perception: DefaultPerception(),
		mc:         make(map[string]decision),
		sa:         make(map[string]decision),
		saStd:      make(map[string]decision),
	}
	byCat := b.ByCategory()
	for _, cat := range dataset.Categories() {
		qs := byCat[cat]
		if len(qs) == 0 {
			continue
		}
		calibrateCategory(m, cat, qs)
	}
	return m
}

// calibrateCategory assigns decisions for one discipline.
//
// Short-answer form ("challenge" columns of Table II): kChal questions
// out of all n are answered correctly, selected by a seeded permutation.
// These decisions also serve the category's native short-answer
// questions in the standard run.
//
// Multiple-choice form: the standard-collection target T_L applies to
// the whole category (MC and native-SA questions together), so the MC
// correct count is the remainder after the native-SA correct answers are
// accounted for. Correct MC answers split into genuinely solved and
// lucky guesses (flavour in the response text); failures split into
// wrong-letter guesses and format-breaking answers according to the
// backbone's instruction-following quality — which is how weak models
// (Kosmos-2, Paligemma) score below the 25% guessing floor, exactly as
// Table II shows.
func calibrateCategory(m *SimulatedVLM, cat dataset.Category, qs []*dataset.Question) {
	p := m.profile
	n := len(qs)
	var mcQs, saQs []*dataset.Question
	for _, q := range qs {
		if q.Type == dataset.MultipleChoice {
			mcQs = append(mcQs, q)
		} else {
			saQs = append(saQs, q)
		}
	}

	// --- Short-answer decisions over every question in the category.
	kChal := roundCount(p.NoChoice[cat], n)
	permSA := rng.New(p.Name, cat.Short(), "sa").Perm(n)
	saCorrect := make(map[string]bool, kChal)
	for i, idx := range permSA {
		q := qs[idx]
		if i < kChal {
			m.sa[q.ID] = decSolve
			saCorrect[q.ID] = true
		} else {
			m.sa[q.ID] = decWrongAnswer
		}
	}

	// --- Standard-run decisions. The standard-collection target T_L
	// covers MC and native-SA questions together. Native-SA answers are
	// kept consistent with the challenge run where the budget allows
	// (the paper ran the two collections separately, so small per-run
	// differences on identical questions are expected — temperature 0.1
	// is near- but not fully deterministic).
	kTotal := roundCount(p.WithChoice[cat], n)
	saChalCorrectNative := 0
	for _, q := range saQs {
		if saCorrect[q.ID] {
			saChalCorrectNative++
		}
	}
	kSAStd := saChalCorrectNative
	if kSAStd > kTotal {
		kSAStd = kTotal
	}
	kMC := kTotal - kSAStd
	if kMC > len(mcQs) {
		// Shift the overflow back onto native SA questions.
		overflow := kMC - len(mcQs)
		kMC = len(mcQs)
		kSAStd += overflow
		if kSAStd > len(saQs) {
			kSAStd = len(saQs)
		}
	}
	// Assign native-SA standard-run decisions: challenge-correct ones
	// first so the runs agree wherever possible.
	ordered := make([]*dataset.Question, 0, len(saQs))
	for _, q := range saQs {
		if saCorrect[q.ID] {
			ordered = append(ordered, q)
		}
	}
	for _, q := range saQs {
		if !saCorrect[q.ID] {
			ordered = append(ordered, q)
		}
	}
	for i, q := range ordered {
		if i < kSAStd {
			m.saStd[q.ID] = decSolve
		} else {
			m.saStd[q.ID] = decWrongAnswer
		}
	}
	permMC := rng.New(p.Name, cat.Short(), "mc").Perm(len(mcQs))
	// Of the correct MC answers, most are solved, the rest are lucky
	// guesses (only the response phrasing differs).
	kSolve := int(math.Round(float64(kMC) * 0.8))
	// Failures: instruction-following quality decides letter-guess vs
	// malformed output.
	follow := 0.4 + 0.6*p.BackboneStrength
	if follow > 1 {
		follow = 1
	}
	fails := len(mcQs) - kMC
	kGuessWrong := int(math.Round(float64(fails) * follow))
	for i, idx := range permMC {
		q := mcQs[idx]
		switch {
		case i < kSolve:
			m.mc[q.ID] = decSolve
		case i < kMC:
			m.mc[q.ID] = decGuessCorrect
		case i < kMC+kGuessWrong:
			m.mc[q.ID] = decGuessWrong
		default:
			m.mc[q.ID] = decMalformed
		}
	}
}

// roundCount converts a target rate into a question count.
func roundCount(rate float64, n int) int {
	k := int(math.Round(rate * float64(n)))
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}
