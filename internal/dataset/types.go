// Package dataset defines the ChipVQA benchmark data model: questions,
// answers, categories and the benchmark container, together with the
// Table I statistics machinery and the multiple-choice → short-answer
// "challenge" transform of §IV-A.
package dataset

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/visual"
)

// Category is one of the five chip-design disciplines of the benchmark.
type Category int

// The five disciplines, in the order of Table I.
const (
	Digital Category = iota
	Analog
	Architecture
	Manufacture
	Physical
	numCategories
)

// NumCategories is the number of disciplines.
const NumCategories = int(numCategories)

var categoryNames = [...]string{
	"Digital Design",
	"Analog Design",
	"Architecture",
	"Manufacture",
	"Physical Design",
}

var categoryShort = [...]string{"Digital", "Analog", "Architecture", "Manufacture", "Physical"}

// String returns the full Table I discipline name.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Short returns the abbreviated name used in Table II column headers.
func (c Category) Short() string {
	if c < 0 || int(c) >= len(categoryShort) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryShort[c]
}

// Categories lists all disciplines in Table I order.
func Categories() []Category {
	return []Category{Digital, Analog, Architecture, Manufacture, Physical}
}

// QType distinguishes the two question formats.
type QType int

// Question formats.
const (
	MultipleChoice QType = iota // four answer options presented in the prompt
	ShortAnswer                 // open-ended response
)

// String names the question type the way Table I abbreviates it.
func (t QType) String() string {
	if t == MultipleChoice {
		return "MC"
	}
	return "SA"
}

// AnswerKind says how a golden answer should be compared against a model
// response by the evaluation judge.
type AnswerKind int

// Golden answer kinds.
const (
	AnswerChoice     AnswerKind = iota // index into the question's Choices
	AnswerNumber                       // numeric value with unit and tolerance
	AnswerExpression                   // boolean expression, compared canonically
	AnswerPhrase                       // short free text with accepted synonyms
)

// Answer is the golden answer of a question.
type Answer struct {
	Kind AnswerKind

	// Choice is the index of the correct option for AnswerChoice.
	Choice int

	// Number, Unit and Tolerance describe an AnswerNumber golden value.
	// Tolerance is relative (0.02 = ±2%); zero means exact after
	// normalisation.
	Number    float64
	Unit      string
	Tolerance float64

	// Text holds the canonical expression or phrase for
	// AnswerExpression / AnswerPhrase, and the canonical text of the
	// correct option for AnswerChoice (used by the challenge transform).
	Text string

	// Accept lists additional strings the judge treats as equivalent.
	Accept []string
}

// Question is one VQA triplet: a text prompt, a visual, and a golden
// answer (plus four options when the question is multiple choice).
type Question struct {
	ID       string
	Category Category
	Type     QType
	Topic    string // free-form topic tag, e.g. "kmap", "bode", "steiner"

	Prompt  string
	Choices []string // exactly 4 entries for MultipleChoice, nil otherwise
	Golden  Answer

	Visual *visual.Scene

	// Challenge marks a question belonging to the challenge collection
	// (the §IV-A variant where every multiple-choice question was
	// rewritten as short answer). The two collections were evaluated in
	// separate runs in the paper, so a model's answer to the same
	// native short-answer question may differ between them.
	Challenge bool

	// Ord is the question's 1-based position in the benchmark that
	// core.BuildBenchmark built, and 0 for a question from anywhere
	// else. It is only a lookup hint for the simulated models' answer
	// tables, which check the ID and content before trusting it, so it
	// is in neither the JSON nor the pack encoding.
	Ord int32 `json:"-"`

	// Difficulty in (0,1]: 1 is hardest. Feeds the reasoning gate of the
	// simulated models; roughly "college course" (≤0.4) through
	// "practical research topic" (≥0.8) per the paper's framing.
	Difficulty float64

	// Memo holds what the simulated models derive from the question
	// alone, built by the first model that answers it. It lives and
	// dies with the question, is in neither the JSON nor the pack
	// encoding, and a Clone starts with an empty one.
	Memo Memo `json:"-"`
}

// Memo is a write-once slot for one opaque record. It is set at most
// once, by compare-and-swap, so concurrent first users agree on one
// record without a lock. A reader must check that the record still
// fits the question, which may have changed since it was set.
type Memo struct {
	_ [0]sync.Mutex // go vet's copylocks check rejects a by-value copy
	v atomic.Value
}

// Load returns the record, or nil if none is set.
func (m *Memo) Load() any { return m.v.Load() }

// Fill sets the record to r if none is set, and returns the record
// the slot then holds: r, or the one set before. It panics if r's
// concrete type differs from that record's, so every user of the slot
// must store the same type.
func (m *Memo) Fill(r any) any {
	if m.v.CompareAndSwap(nil, r) {
		return r
	}
	return m.v.Load()
}

// Clone returns a copy of q with an empty Memo. The copy shares q's
// Choices, Golden.Accept and Visual, which are read-only.
func (q *Question) Clone() *Question {
	return &Question{
		ID: q.ID, Category: q.Category, Type: q.Type, Topic: q.Topic,
		Prompt: q.Prompt, Choices: q.Choices, Golden: q.Golden, Visual: q.Visual,
		Challenge: q.Challenge, Ord: q.Ord, Difficulty: q.Difficulty,
	}
}

// Validate checks structural invariants of a question.
func (q *Question) Validate() error {
	if q.ID == "" {
		return fmt.Errorf("dataset: question has empty ID")
	}
	if q.Category < 0 || q.Category >= numCategories {
		return fmt.Errorf("dataset: %s: bad category %d", q.ID, q.Category)
	}
	if q.Prompt == "" {
		return fmt.Errorf("dataset: %s: empty prompt", q.ID)
	}
	if q.Visual == nil {
		return fmt.Errorf("dataset: %s: no visual (every ChipVQA question has at least one)", q.ID)
	}
	switch q.Type {
	case MultipleChoice:
		if len(q.Choices) != 4 {
			return fmt.Errorf("dataset: %s: multiple choice needs 4 options, got %d", q.ID, len(q.Choices))
		}
		if q.Golden.Kind != AnswerChoice {
			return fmt.Errorf("dataset: %s: multiple choice golden answer must be AnswerChoice", q.ID)
		}
		if q.Golden.Choice < 0 || q.Golden.Choice >= len(q.Choices) {
			return fmt.Errorf("dataset: %s: golden choice %d out of range", q.ID, q.Golden.Choice)
		}
		if q.Golden.Text == "" {
			return fmt.Errorf("dataset: %s: golden Text must carry the correct option's content", q.ID)
		}
	case ShortAnswer:
		if len(q.Choices) != 0 {
			return fmt.Errorf("dataset: %s: short answer must not carry options", q.ID)
		}
		if q.Golden.Kind == AnswerChoice {
			return fmt.Errorf("dataset: %s: short answer golden cannot be AnswerChoice", q.ID)
		}
	default:
		return fmt.Errorf("dataset: %s: unknown question type %d", q.ID, q.Type)
	}
	if q.Difficulty <= 0 || q.Difficulty > 1 {
		return fmt.Errorf("dataset: %s: difficulty %v outside (0,1]", q.ID, q.Difficulty)
	}
	return nil
}

// Benchmark is an ordered collection of questions.
type Benchmark struct {
	Name      string
	Questions []*Question
}

// Len returns the number of questions.
func (b *Benchmark) Len() int { return len(b.Questions) }

// ByCategory groups the questions by discipline, preserving order.
func (b *Benchmark) ByCategory() map[Category][]*Question {
	m := make(map[Category][]*Question)
	for _, q := range b.Questions {
		m[q.Category] = append(m[q.Category], q)
	}
	return m
}

// Filter returns the questions for which keep reports true.
func (b *Benchmark) Filter(keep func(*Question) bool) []*Question {
	var out []*Question
	for _, q := range b.Questions {
		if keep(q) {
			out = append(out, q)
		}
	}
	return out
}

// Validate checks every question.
func (b *Benchmark) Validate() error {
	seen := make(map[string]bool, len(b.Questions))
	for _, q := range b.Questions {
		if err := q.Validate(); err != nil {
			return err
		}
		if seen[q.ID] {
			return fmt.Errorf("dataset: duplicate question ID %s", q.ID)
		}
		seen[q.ID] = true
	}
	return nil
}

// letters backs ChoiceLetter: slicing a constant does not allocate.
const letters = "abcdefghijklmnopqrstuvwxyz"

// ChoiceLetter formats a choice index as the letter used in prompts.
func ChoiceLetter(i int) string {
	if i >= 0 && i < len(letters) {
		return letters[i : i+1]
	}
	return string(rune('a' + i))
}

// FormatPrompt renders the full text prompt a model receives, appending
// lettered options for multiple-choice questions — the paper notes that
// these options act like retrieval-augmented context.
func (q *Question) FormatPrompt() string {
	if q.Type != MultipleChoice {
		return q.Prompt
	}
	n := len(q.Prompt)
	for _, c := range q.Choices {
		n += len("\na) ") + len(c)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(q.Prompt)
	for i, c := range q.Choices {
		b.WriteString("\n")
		b.WriteString(ChoiceLetter(i))
		b.WriteString(") ")
		b.WriteString(c)
	}
	return b.String()
}
