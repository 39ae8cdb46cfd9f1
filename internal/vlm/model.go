package vlm

import (
	"strconv"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/visual"
)

// decision is the precomputed solve outcome for one (question, format).
type decision int

const (
	decUnknown      decision = iota
	decSolve                 // produces the golden answer
	decGuessCorrect          // fails to solve but its option guess lands
	decGuessWrong            // fails and guesses a wrong option
	decMalformed             // fails to follow the answer format at all
	decWrongAnswer           // short-answer attempt that is wrong
)

// PerceptionPolicy holds the tunable constants of the perception stage;
// the resolution ablation sweeps these.
type PerceptionPolicy struct {
	// RecallThreshold is the fraction of critical scene content the
	// model must still resolve to attempt the question.
	RecallThreshold float64
	// LossScaleBase and LossScalePerception map a profile's Perception
	// to a multiplier on visual.LegibilityLoss:
	// scale = LossScaleBase - LossScalePerception*Perception.
	LossScaleBase       float64
	LossScalePerception float64
}

// DefaultPerception returns the calibrated policy: 8x downsampling is
// harmless, 16x costs roughly a quarter of otherwise-correct answers,
// matching §IV-B.
func DefaultPerception() PerceptionPolicy {
	return PerceptionPolicy{RecallThreshold: 0.65, LossScaleBase: 1.5, LossScalePerception: 0.5}
}

// SimulatedVLM is one Table II model: a capability profile plus the
// precomputed per-question solve decisions the Zoo calibrates against
// the paper's Pass@1 targets.
type SimulatedVLM struct {
	profile    Profile
	perception PerceptionPolicy
	mc         map[string]decision // by question ID, multiple-choice form
	sa         map[string]decision // by question ID, challenge-run short-answer form
	saStd      map[string]decision // native short-answer questions, standard run
}

var _ eval.Model = (*SimulatedVLM)(nil)

// Name implements eval.Model.
func (m *SimulatedVLM) Name() string { return m.profile.Name }

// Profile exposes the capability profile.
func (m *SimulatedVLM) Profile() Profile { return m.profile }

// SetPerception overrides the perception policy (ablations).
//
//lint:ignore unreachable kept for BenchmarkAblationBottleneck in bench_test.go
func (m *SimulatedVLM) SetPerception(p PerceptionPolicy) { m.perception = p }

// Answer implements eval.Model: it runs the simulated Fig. 2 pipeline —
// perception over the scene graph at the requested resolution, then the
// calibrated solve stage — and emits the model's textual response. The
// simulation reads the question directly, so it assembles no §IV text
// prompt.
func (m *SimulatedVLM) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	if !m.perceives(q, opts.DownsampleFactor) {
		return m.perceptionFailureResponse(q)
	}
	dec := m.decisionFor(q)
	switch dec {
	case decSolve:
		return m.goldenResponse(q, true)
	case decGuessCorrect:
		return dataset.ChoiceLetter(q.Golden.Choice)
	case decGuessWrong:
		return m.wrongLetter(q)
	case decMalformed:
		return m.malformedResponse(q)
	default:
		return m.wrongShortAnswer(q)
	}
}

// perceives runs the perception stage: at full resolution the scene
// graph is fully legible; a downsampled image loses low-salience
// critical details per visual.LegibilityLoss, and the model gives up
// when too little of the critical content survives. Each critical
// element's loss is a few flops, so it is derived in place, and its
// recovery draw is keyed by (model, question, "perc", element, factor)
// through one prefix hash: the stage takes no lock and allocates nothing.
//
//hot:perception the §IV-B resolution runs call this per (model, question)
func (m *SimulatedVLM) perceives(q *dataset.Question, factor int) bool {
	if factor <= 1 || q.Visual == nil {
		return true
	}
	scale := m.perception.LossScaleBase - m.perception.LossScalePerception*m.profile.Perception
	key := rng.NewHasher(m.profile.Name, q.ID, "perc")
	critical, recovered := 0, 0
	for i := range q.Visual.Elements {
		e := &q.Visual.Elements[i]
		if !e.Critical {
			continue
		}
		critical++
		loss := visual.LegibilityLoss(factor, e.Salience) * scale
		if loss > 1 {
			loss = 1
		}
		if key.String(e.Name).Int(factor).Bernoulli(1 - loss) {
			recovered++
		}
	}
	if critical == 0 {
		return true
	}
	frac := float64(recovered) / float64(critical)
	return frac >= m.perception.RecallThreshold
}

func (m *SimulatedVLM) decisionFor(q *dataset.Question) decision {
	var table map[string]decision
	switch {
	case q.Type == dataset.MultipleChoice:
		table = m.mc
	case q.Challenge:
		table = m.sa
	default:
		table = m.saStd
	}
	if d, ok := table[q.ID]; ok && d != decUnknown {
		return d
	}
	// Unseen question: fall back to hash-threshold sampling against the
	// profile's calibration targets.
	var target float64
	if q.Type == dataset.MultipleChoice {
		target = m.profile.WithChoice[q.Category]
	} else {
		target = m.profile.NoChoice[q.Category]
	}
	if rng.NewHasher(m.profile.Name, q.ID, "fallback", q.Type.String()).Bernoulli(target) {
		return decSolve
	}
	if q.Type == dataset.MultipleChoice {
		return decGuessWrong
	}
	return decWrongAnswer
}

// goldenResponse renders the correct answer the way a well-behaved model
// would phrase it.
func (m *SimulatedVLM) goldenResponse(q *dataset.Question, verbose bool) string {
	if q.Type == dataset.MultipleChoice {
		letter := dataset.ChoiceLetter(q.Golden.Choice)
		if verbose {
			return letter + ") " + q.Choices[q.Golden.Choice]
		}
		return letter
	}
	switch q.Golden.Kind {
	case dataset.AnswerNumber:
		if q.Golden.Text != "" {
			return q.Golden.Text
		}
		return quantity(q.Golden.Number, q.Golden.Unit)
	default:
		return q.Golden.Text
	}
}

// quantity formats a number and its unit as fmt's "%g %s" does, with
// the response string as its only allocation.
func quantity(x float64, unit string) string {
	var buf [48]byte
	b := strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
	b = append(b, ' ')
	return string(append(b, unit...))
}

func (m *SimulatedVLM) wrongLetter(q *dataset.Question) string {
	s := rng.NewHasher(m.profile.Name, q.ID, "wrong-letter").Stream()
	off := 1 + s.IntN(3)
	return dataset.ChoiceLetter((q.Golden.Choice + off) % 4)
}

// malformedResponse is the answer of a model that ignores the answer
// format and describes the image instead. The sentence depends only on
// the visual kind, so it comes from malformedSentences.
func (m *SimulatedVLM) malformedResponse(q *dataset.Question) string {
	kind := visual.KindFigure // a question without a scene is described as a figure
	if q.Visual != nil {
		kind = q.Visual.Kind
	}
	if kind >= 0 && int(kind) < len(malformedSentences) {
		return malformedSentences[kind]
	}
	return malformedSentence(kind)
}

// malformedSentences holds malformedSentence for every visual.Kind,
// built once so that no event rebuilds a constant sentence.
var malformedSentences = func() (t [visual.NumKinds]string) {
	for k := range t {
		t[k] = malformedSentence(visual.Kind(k))
	}
	return t
}()

func malformedSentence(kind visual.Kind) string {
	return "The image shows a " + kind.String() + " with several connected components. " +
		"It depicts the structure described in the question."
}

func (m *SimulatedVLM) wrongShortAnswer(q *dataset.Question) string {
	switch q.Golden.Kind {
	case dataset.AnswerNumber:
		// Classic slip: off by a factor well outside tolerance.
		s := rng.NewHasher(m.profile.Name, q.ID, "wrong-num").Stream()
		factor := [...]float64{3.1, 0.31, -1.7}[s.IntN(3)]
		return quantity(q.Golden.Number*factor+1, q.Golden.Unit)
	case dataset.AnswerExpression:
		// Plausible but never equivalent to the non-trivial functions
		// the benchmark asks for.
		return "F = A + B'"
	default:
		return "it is a standard configuration commonly used in this context"
	}
}

func (m *SimulatedVLM) perceptionFailureResponse(q *dataset.Question) string {
	return "The image resolution is too low to read the annotated values needed to answer."
}
