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

// entry is one calibrated (model, question, form) outcome: the decision
// in its low bits and, above variantShift, the variant its wrong
// answer takes: the wrong-letter offset of decGuessWrong, or the index
// into wrongFactors of a numeric decWrongAnswer.
type entry uint8

const variantShift = 3

func (e entry) decision() decision { return decision(e & (1<<variantShift - 1)) }
func (e entry) variant() int       { return int(e >> variantShift) }

// SimulatedVLM is one Table II model: a capability profile plus the
// precomputed per-question solve decisions the Zoo calibrates against
// the paper's Pass@1 targets.
type SimulatedVLM struct {
	profile    Profile
	perception PerceptionPolicy
	// key is rng.NewHasher(profile.Name), the prefix of every answer
	// draw; a draw at question q extends key.String(q.ID).
	key  rng.Hasher
	bank *answerBank // shared by the Zoo's models
	// Decision tables, indexed like bank.ids; decUnknown where a
	// question has no such form.
	mc    []entry // multiple-choice form
	sa    []entry // challenge-run short-answer form, every question
	saStd []entry // native short-answer questions, standard run
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
// prompt. A question the Zoo calibrated on is answered from its tables;
// any other is answered from its own Memo record, and only its decision
// is drawn per answer.
//
// Every draw of one answer extends one prefix, the model's key and the
// question ID, hashed only once a draw needs it: a full-resolution
// answer from the tables hashes nothing.
func (m *SimulatedVLM) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	var key rng.Hasher // 0 until a draw needs it; a prefix that hashes to 0 is just hashed twice
	if opts.DownsampleFactor > 1 && q.Visual != nil {
		key = m.key.String(q.ID)
		if !m.perceives(q, key, opts.DownsampleFactor) {
			return m.perceptionFailureResponse(q)
		}
	}
	f, e := m.calibrated(q)
	if f == nil {
		if key == 0 {
			key = m.key.String(q.ID)
		}
		f = questionAnswers(q)
		e = entryFor(m.decisionFor(q, key), f.kind, key)
	}
	return m.respond(q, f, e)
}

// respond renders the decision and variant of e as a response to q,
// from q's responses f.
func (m *SimulatedVLM) respond(q *dataset.Question, f *formAnswers, e entry) string {
	switch e.decision() {
	case decSolve:
		if f.golden == "" && f.qtype == dataset.MultipleChoice {
			// The golden choice names no option; index them anyway, to
			// fail as rendering the golden option always has.
			return q.Choices[q.Golden.Choice]
		}
		return f.golden
	case decGuessCorrect:
		return dataset.ChoiceLetter(f.choice)
	case decGuessWrong:
		return dataset.ChoiceLetter((f.choice + e.variant()) % 4)
	case decMalformed:
		return m.malformedResponse(q)
	}
	if f.kind == dataset.AnswerNumber {
		return f.wrong[e.variant()]
	}
	return wrongTextAnswer(f.kind)
}

// perceives runs the perception stage: at full resolution the scene
// graph is fully legible; a downsampled image loses low-salience
// critical details per visual.LegibilityLoss, and the model gives up
// when too little of the critical content survives. Each critical
// element's loss is a few flops, so it is derived in place, and its
// recovery draw is keyed by (model, question, "perc", element, factor)
// through one prefix hash, qkey = m.key.String(q.ID): the stage takes
// no lock and allocates nothing.
//
//hot:perception the §IV-B resolution runs call this per (model, question)
func (m *SimulatedVLM) perceives(q *dataset.Question, qkey rng.Hasher, factor int) bool {
	if factor <= 1 || q.Visual == nil {
		return true
	}
	scale := m.perception.LossScaleBase - m.perception.LossScalePerception*m.profile.Perception
	key := qkey.String("perc")
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

// calibrated returns the bank's responses to q and q's table entry
// when q is the calibrated question its Ord names: the same ID, and the
// golden the bank's responses were built from. f is nil for any other
// question, and for one whose decision the tables leave to the
// fallback draw; Answer then takes the general path, whose response is
// the same for a question the tables do answer.
//
//hot:vlm per-event answer to a calibrated question (DESIGN.md §12)
func (m *SimulatedVLM) calibrated(q *dataset.Question) (f *formAnswers, e entry) {
	i := int(q.Ord) - 1
	if uint(i) >= uint(len(m.bank.ids)) || m.bank.ids[i] != q.ID {
		return nil, 0
	}
	table, form := m.tableFor(q)
	e = table[i]
	f = &m.bank.forms[form][i]
	if e.decision() == decUnknown || !f.matches(q) {
		return nil, 0
	}
	return f, e
}

// tableFor returns the decision table and the bank form of q's format.
func (m *SimulatedVLM) tableFor(q *dataset.Question) ([]entry, int) {
	switch {
	case q.Type == dataset.MultipleChoice:
		return m.mc, ownForm
	case q.Challenge:
		return m.sa, challengeForm
	}
	return m.saStd, ownForm
}

// decisionFor is the decision of a question calibrated does not
// answer: the calibrated one for its ID and form, if any, else a draw
// against the profile's targets, keyed by qkey = m.key.String(q.ID).
func (m *SimulatedVLM) decisionFor(q *dataset.Question, qkey rng.Hasher) decision {
	if i, ok := m.bank.index[q.ID]; ok {
		table, _ := m.tableFor(q)
		if d := table[i].decision(); d != decUnknown {
			return d
		}
	}
	// Unseen question: fall back to hash-threshold sampling against the
	// profile's calibration targets.
	var target float64
	if q.Type == dataset.MultipleChoice {
		target = m.profile.WithChoice[q.Category]
	} else {
		target = m.profile.NoChoice[q.Category]
	}
	if qkey.String("fallback").String(q.Type.String()).Bernoulli(target) {
		return decSolve
	}
	if q.Type == dataset.MultipleChoice {
		return decGuessWrong
	}
	return decWrongAnswer
}

// appendQuantity appends a number and its unit to b as fmt's "%g %s"
// formats them.
func appendQuantity(b []byte, x float64, unit string) []byte {
	b = strconv.AppendFloat(b, x, 'g', -1, 64)
	b = append(b, ' ')
	return append(b, unit...)
}

// entryFor is the entry of decision d at the question whose prefix is
// qkey and whose golden is of the given kind: d with the variant its
// wrong answer takes, drawn from the same hashers at calibration and
// per answer.
func entryFor(d decision, kind dataset.AnswerKind, qkey rng.Hasher) entry {
	v := 0
	switch {
	case d == decGuessWrong:
		v = wrongLetterOffset(qkey)
	case d == decWrongAnswer && kind == dataset.AnswerNumber:
		v = wrongNumberIndex(qkey)
	}
	return entry(d) | entry(v)<<variantShift
}

// wrongLetterOffset is how many options past the golden one the model's
// wrong guess lands, 1 to 3, at the question whose prefix is qkey.
func wrongLetterOffset(qkey rng.Hasher) int {
	s := qkey.String("wrong-letter").Stream()
	return 1 + s.IntN(3)
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

// wrongFactors are the classic slips of a wrong numeric answer, each
// well outside tolerance: the answer is golden*factor+1.
var wrongFactors = [...]float64{3.1, 0.31, -1.7}

// wrongNumberIndex picks the model's slip from wrongFactors at the
// question whose prefix is qkey.
func wrongNumberIndex(qkey rng.Hasher) int {
	s := qkey.String("wrong-num").Stream()
	return s.IntN(len(wrongFactors))
}

// wrongTextAnswer is the wrong short answer to a non-numeric golden.
func wrongTextAnswer(kind dataset.AnswerKind) string {
	if kind == dataset.AnswerExpression {
		// Plausible but never equivalent to the non-trivial functions
		// the benchmark asks for.
		return "F = A + B'"
	}
	return "it is a standard configuration commonly used in this context"
}

func (m *SimulatedVLM) perceptionFailureResponse(q *dataset.Question) string {
	return "The image resolution is too low to read the annotated values needed to answer."
}
