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

// NewZoo calibrates the full Table II model list against the benchmark,
// whose question IDs must be unique, as Benchmark.Validate checks.
func NewZoo(b *dataset.Benchmark) *Zoo {
	z := &Zoo{}
	bank := newAnswerBank(b)
	byCat := b.ByCategory()
	for _, p := range Profiles() {
		z.models = append(z.models, calibrate(p, bank, byCat))
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

// The two forms of a calibrated question the bank holds responses for.
const (
	ownForm       = iota // the question as built: multiple choice or native short answer
	challengeForm        // its q.StripChoices() copy in the challenge collection
	numForms
)

// answerBank is what the Zoo's models share about the benchmark they
// were calibrated on: each question's ID, an ID → index map, and per
// form the responses that depend only on the question. A model's
// decision tables are indexed like ids.
type answerBank struct {
	ids   []string
	index map[string]int32 // each ID's index in ids
	forms [numForms][]formAnswers
}

// formAnswers is one form of a question: the golden fields its
// responses are built from, which matches compares with the asked
// question, and the responses themselves. The bank holds one per form
// of each calibrated question; any other question holds its own in its
// Memo (questionAnswers).
type formAnswers struct {
	kind       dataset.AnswerKind
	qtype      dataset.QType
	choice     int
	number     float64
	unit, text string
	option     string // the golden option's text, multiple choice only
	golden     string // the correct response
	wrong      [len(wrongFactors)]string
}

func newAnswerBank(b *dataset.Benchmark) *answerBank {
	n := len(b.Questions)
	bank := &answerBank{ids: make([]string, n), index: make(map[string]int32, n)}
	for f := range bank.forms {
		bank.forms[f] = make([]formAnswers, n)
	}
	for i, q := range b.Questions {
		bank.ids[i] = q.ID
		bank.index[q.ID] = int32(i)
		bank.forms[ownForm][i] = newFormAnswers(q)
		if q.Type == dataset.MultipleChoice {
			bank.forms[challengeForm][i] = newFormAnswers(q.StripChoices())
		} else {
			// StripChoices only sets Challenge on a short-answer question.
			bank.forms[challengeForm][i] = bank.forms[ownForm][i]
		}
	}
	return bank
}

// newFormAnswers renders q's responses, all in one allocation. The
// correct one is phrased as a well-behaved model would: a
// multiple-choice answer as its letter and option, a short answer as
// its golden text or quantity.
func newFormAnswers(q *dataset.Question) formAnswers {
	g := &q.Golden
	f := formAnswers{kind: g.Kind, qtype: q.Type, choice: g.Choice, number: g.Number, unit: g.Unit, text: g.Text}
	var buf [4 * 48]byte
	b := buf[:0]
	switch {
	case q.Type == dataset.MultipleChoice:
		if uint(g.Choice) >= uint(len(q.Choices)) {
			return f // matches never holds, and respond indexes Choices to fail as before
		}
		f.option = q.Choices[g.Choice]
		b = append(append(append(b, dataset.ChoiceLetter(g.Choice)...), ") "...), f.option...)
	case g.Kind == dataset.AnswerNumber && g.Text == "":
		b = appendQuantity(b, g.Number, g.Unit)
	}
	golden := len(b)
	var ends [len(wrongFactors)]int
	for k, factor := range wrongFactors {
		if g.Kind == dataset.AnswerNumber {
			b = appendQuantity(b, g.Number*factor+1, g.Unit)
		}
		ends[k] = len(b)
	}
	all := string(b)
	f.golden = all[:golden]
	if golden == 0 {
		f.golden = g.Text
	}
	start := golden
	for k, end := range ends {
		f.wrong[k] = all[start:end]
		start = end
	}
	return f
}

// matches reports whether q has the format and golden this form's
// responses were built from: every golden field a response reads, and
// for multiple choice the golden option's text.
func (f *formAnswers) matches(q *dataset.Question) bool {
	g := &q.Golden
	if q.Type != f.qtype || g.Kind != f.kind || g.Choice != f.choice ||
		math.Float64bits(g.Number) != math.Float64bits(f.number) || g.Unit != f.unit || g.Text != f.text {
		return false
	}
	if q.Type != dataset.MultipleChoice {
		return true
	}
	return uint(g.Choice) < uint(len(q.Choices)) && q.Choices[g.Choice] == f.option
}

// questionAnswers returns the responses of a question the bank does
// not answer: the record in q's Memo, built and set by the first model
// that asks. A record that no longer matches q, because q changed after
// it was set, is not replaced; such a question gets fresh responses per
// answer.
func questionAnswers(q *dataset.Question) *formAnswers {
	f, _ := q.Memo.Load().(*formAnswers)
	if f == nil {
		r := newFormAnswers(q)
		f, _ = q.Memo.Fill(&r).(*formAnswers)
	}
	if f.matches(q) {
		return f
	}
	r := newFormAnswers(q)
	return &r
}

// calibrate derives per-question decisions from the profile's Table II
// targets over the bank's benchmark, grouped by category.
func calibrate(p Profile, bank *answerBank, byCat map[dataset.Category][]*dataset.Question) *SimulatedVLM {
	n := len(bank.ids)
	tables := make([]entry, 3*n)
	m := &SimulatedVLM{
		profile:    p,
		perception: DefaultPerception(),
		key:        rng.NewHasher(p.Name),
		bank:       bank,
		mc:         tables[:n:n],
		sa:         tables[n : 2*n : 2*n],
		saStd:      tables[2*n:],
	}
	for _, cat := range dataset.Categories() {
		qs := byCat[cat]
		if len(qs) == 0 {
			continue
		}
		calibrateCategory(m, cat, qs)
	}
	return m
}

// set records decision d for q in one of m's tables, at the index of
// q's ID, with the variant its wrong answer takes on the given form.
func (m *SimulatedVLM) set(table []entry, form int, q *dataset.Question, d decision) {
	i := m.bank.index[q.ID]
	table[i] = entryFor(d, m.bank.forms[form][i].kind, m.key.String(q.ID))
}

// solvesChallenge reports whether m solves q in the challenge run.
func (m *SimulatedVLM) solvesChallenge(q *dataset.Question) bool {
	return m.sa[m.bank.index[q.ID]].decision() == decSolve
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
	for i, idx := range permSA {
		if i < kChal {
			m.set(m.sa, challengeForm, qs[idx], decSolve)
		} else {
			m.set(m.sa, challengeForm, qs[idx], decWrongAnswer)
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
		if m.solvesChallenge(q) {
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
		if m.solvesChallenge(q) {
			ordered = append(ordered, q)
		}
	}
	for _, q := range saQs {
		if !m.solvesChallenge(q) {
			ordered = append(ordered, q)
		}
	}
	for i, q := range ordered {
		if i < kSAStd {
			m.set(m.saStd, ownForm, q, decSolve)
		} else {
			m.set(m.saStd, ownForm, q, decWrongAnswer)
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
			m.set(m.mc, ownForm, q, decSolve)
		case i < kMC:
			m.set(m.mc, ownForm, q, decGuessCorrect)
		case i < kMC+kGuessWrong:
			m.set(m.mc, ownForm, q, decGuessWrong)
		default:
			m.set(m.mc, ownForm, q, decMalformed)
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
