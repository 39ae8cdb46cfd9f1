package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/visual"
)

func sampleQuestion(id string, t QType) *Question {
	scene := visual.NewScene(visual.KindSchematic, "Test scene")
	scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Label: "B",
		X: 10, Y: 10, X2: 50, Y2: 40, Critical: true})
	q := &Question{
		ID:         id,
		Category:   Digital,
		Type:       t,
		Topic:      "test",
		Prompt:     "What does the box in the figure represent?",
		Visual:     scene,
		Difficulty: 0.5,
	}
	if t == MultipleChoice {
		q.Choices = []string{"a block", "a wire", "a pin", "a via"}
		q.Golden = Answer{Kind: AnswerChoice, Choice: 0, Text: "a block"}
	} else {
		q.Golden = Answer{Kind: AnswerPhrase, Text: "a block"}
	}
	return q
}

// --- Validation --------------------------------------------------------

func TestValidateAcceptsGood(t *testing.T) {
	for _, ty := range []QType{MultipleChoice, ShortAnswer} {
		if err := sampleQuestion("q1", ty).Validate(); err != nil {
			t.Errorf("%v: %v", ty, err)
		}
	}
}

func TestValidateRejectsBad(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Question)
	}{
		{"empty id", func(q *Question) { q.ID = "" }},
		{"empty prompt", func(q *Question) { q.Prompt = "" }},
		{"no visual", func(q *Question) { q.Visual = nil }},
		{"bad category", func(q *Question) { q.Category = Category(99) }},
		{"three options", func(q *Question) { q.Choices = q.Choices[:3] }},
		{"golden out of range", func(q *Question) { q.Golden.Choice = 7 }},
		{"golden kind mismatch", func(q *Question) { q.Golden.Kind = AnswerNumber }},
		{"golden text missing", func(q *Question) { q.Golden.Text = "" }},
		{"difficulty zero", func(q *Question) { q.Difficulty = 0 }},
		{"difficulty above one", func(q *Question) { q.Difficulty = 1.5 }},
	}
	for _, m := range mutations {
		q := sampleQuestion("q1", MultipleChoice)
		m.mut(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
	// SA with options is invalid.
	sa := sampleQuestion("q2", ShortAnswer)
	sa.Choices = []string{"a", "b", "c", "d"}
	if err := sa.Validate(); err == nil {
		t.Error("short answer with options accepted")
	}
}

func TestBenchmarkValidateDuplicates(t *testing.T) {
	b := &Benchmark{Questions: []*Question{
		sampleQuestion("dup", MultipleChoice),
		sampleQuestion("dup", ShortAnswer),
	}}
	if err := b.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

// --- Prompt formatting ------------------------------------------------------

func TestFormatPrompt(t *testing.T) {
	mc := sampleQuestion("q1", MultipleChoice)
	p := mc.FormatPrompt()
	for _, frag := range []string{"a) a block", "b) a wire", "c) a pin", "d) a via"} {
		if !strings.Contains(p, frag) {
			t.Errorf("prompt missing %q:\n%s", frag, p)
		}
	}
	sa := sampleQuestion("q2", ShortAnswer)
	if sa.FormatPrompt() != sa.Prompt {
		t.Error("short-answer prompt should be bare")
	}
}

func TestChoiceLetter(t *testing.T) {
	if ChoiceLetter(0) != "a" || ChoiceLetter(3) != "d" {
		t.Error("letters wrong")
	}
}

// --- Constructors -------------------------------------------------------------

func TestNewMCGoldenIndex(t *testing.T) {
	scene := visual.NewScene(visual.KindTable, "s")
	scene.Add(visual.Element{Type: visual.ElemCell, Name: "c", Critical: true})
	q := NewMC("x1", Analog, "topic", "prompt?", scene,
		"CORRECT", [3]string{"w1", "w2", "w3"}, 0.5)
	if q.Choices[q.Golden.Choice] != "CORRECT" {
		t.Errorf("golden index points at %q", q.Choices[q.Golden.Choice])
	}
	if q.Golden.Text != "CORRECT" {
		t.Errorf("golden text %q", q.Golden.Text)
	}
	// Shuffle is deterministic per ID.
	q2 := NewMC("x1", Analog, "topic", "prompt?", scene,
		"CORRECT", [3]string{"w1", "w2", "w3"}, 0.5)
	for i := range q.Choices {
		if q.Choices[i] != q2.Choices[i] {
			t.Fatal("shuffle not deterministic")
		}
	}
	// Different IDs shuffle differently at least sometimes.
	diff := false
	for _, id := range []string{"x2", "x3", "x4", "x5"} {
		q3 := NewMC(id, Analog, "t", "p?", scene, "CORRECT", [3]string{"w1", "w2", "w3"}, 0.5)
		if q3.Golden.Choice != q.Golden.Choice {
			diff = true
		}
	}
	if !diff {
		t.Error("golden position identical across many IDs; shuffle suspect")
	}
}

func TestNewMCNumericCarriesUnits(t *testing.T) {
	scene := visual.NewScene(visual.KindCurve, "s")
	scene.Add(visual.Element{Type: visual.ElemAxis, Name: "a", Critical: true})
	q := NewMCNumeric("n1", Analog, "t", "p?", scene, 42.5, "Hz", 0.05,
		"42.5 Hz", [3]string{"1 Hz", "2 Hz", "3 Hz"}, 0.5)
	if q.Golden.Number != 42.5 || q.Golden.Unit != "Hz" || q.Golden.Tolerance != 0.05 {
		t.Errorf("golden %+v", q.Golden)
	}
	// Default tolerance applies when zero.
	q2 := NewMCNumeric("n2", Analog, "t", "p?", scene, 1, "V", 0,
		"1 V", [3]string{"2 V", "3 V", "4 V"}, 0.5)
	if q2.Golden.Tolerance != 0.02 {
		t.Errorf("default tolerance %v", q2.Golden.Tolerance)
	}
}

// --- Challenge transform ---------------------------------------------------------

func TestChallengeTransform(t *testing.T) {
	b := &Benchmark{Name: "t", Questions: []*Question{
		sampleQuestion("q1", MultipleChoice),
		sampleQuestion("q2", ShortAnswer),
	}}
	chal := b.Challenge()
	if chal.Name != "t-challenge" {
		t.Errorf("name %q", chal.Name)
	}
	if chal.Len() != 2 {
		t.Fatalf("len %d", chal.Len())
	}
	for _, q := range chal.Questions {
		if q.Type != ShortAnswer {
			t.Errorf("%s still %v", q.ID, q.Type)
		}
		if len(q.Choices) != 0 {
			t.Errorf("%s still has options", q.ID)
		}
		if !q.Challenge {
			t.Errorf("%s not flagged as challenge", q.ID)
		}
	}
	// Original untouched.
	if b.Questions[0].Type != MultipleChoice || b.Questions[0].Challenge {
		t.Error("transform mutated the original")
	}
	// MC golden becomes a phrase carrying the correct option content.
	g := chal.Questions[0].Golden
	if g.Kind != AnswerPhrase || g.Text != "a block" {
		t.Errorf("challenge golden %+v", g)
	}
}

func TestChallengeGoldenKinds(t *testing.T) {
	scene := visual.NewScene(visual.KindSchematic, "s")
	scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Critical: true})
	num := NewMCNumeric("n1", Analog, "t", "p?", scene, 5, "V", 0.02,
		"5 V", [3]string{"1 V", "2 V", "3 V"}, 0.5)
	g := num.StripChoices().Golden
	if g.Kind != AnswerNumber || g.Number != 5 || g.Unit != "V" {
		t.Errorf("numeric challenge golden %+v", g)
	}
	expr := NewMC("e1", Digital, "t", "p?", scene,
		"F = A'B + C", [3]string{"F = AB", "F = A + B", "F = C'"}, 0.5)
	g = expr.StripChoices().Golden
	if g.Kind != AnswerExpression {
		t.Errorf("expression challenge golden kind %v", g.Kind)
	}
}

// --- Tokens -------------------------------------------------------------------

func TestCountTokens(t *testing.T) {
	cases := []struct {
		s    string
		want int
	}{
		{"", 0},
		{"hello", 2}, // 5 letters -> 1 + (5-1)/4 = 2
		{"a b c", 3},
		{"R1 = 2.2", 4}, // R, 1, =, 2.2
		{"what is the lithography resolution", 9}, // long words split into subwords
	}
	for _, c := range cases {
		if got := CountTokens(c.s); got != c.want {
			t.Errorf("CountTokens(%q) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestQuickTokensMonotone(t *testing.T) {
	// Property: appending a word never reduces the count.
	f := func(a, b string) bool {
		return CountTokens(a+" "+b) >= CountTokens(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTokenStats(t *testing.T) {
	b := &Benchmark{Questions: []*Question{
		sampleQuestion("q1", MultipleChoice),
		sampleQuestion("q2", ShortAnswer),
	}}
	s := b.PromptTokenStats()
	if s.Min <= 0 || s.Max < s.Min || s.Mean <= 0 {
		t.Errorf("stats %+v", s)
	}
	if s.P25 > s.P50 || s.P50 > s.P75 {
		t.Errorf("quartiles unordered: %+v", s)
	}
}

func TestWordCount(t *testing.T) {
	if WordCount("one two  three") != 3 {
		t.Error("word count")
	}
}

// --- Stats & JSON ---------------------------------------------------------------

func TestComputeStatsAndFormat(t *testing.T) {
	b := &Benchmark{Questions: []*Question{
		sampleQuestion("q1", MultipleChoice),
		sampleQuestion("q2", ShortAnswer),
	}}
	s := b.ComputeStats()
	if s.Total != 2 || s.MC != 1 || s.SA != 1 {
		t.Errorf("stats %+v", s)
	}
	if s.PerCategory[Digital] != 2 {
		t.Errorf("per category %v", s.PerCategory)
	}
	out := s.FormatTableI()
	for _, frag := range []string{"TABLE I", "Digital Design", "mean"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I output missing %q", frag)
		}
	}
}

func TestCoverageMatrix(t *testing.T) {
	b := &Benchmark{Questions: []*Question{sampleQuestion("q1", MultipleChoice)}}
	m := b.CoverageMatrix()
	if m[int(Digital)][int(visual.KindSchematic)] != 1 {
		t.Errorf("coverage %v", m)
	}
	if FormatCoverage(m) == "" {
		t.Error("empty coverage format")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	b := &Benchmark{Name: "rt", Questions: []*Question{
		sampleQuestion("q1", MultipleChoice),
		sampleQuestion("q2", ShortAnswer),
	}}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != b.Name || back.Len() != b.Len() {
		t.Fatalf("round trip lost shape: %s %d", back.Name, back.Len())
	}
	for i, q := range back.Questions {
		orig := b.Questions[i]
		if q.ID != orig.ID || q.Prompt != orig.Prompt || q.Type != orig.Type ||
			q.Golden.Kind != orig.Golden.Kind || q.Golden.Text != orig.Golden.Text {
			t.Errorf("question %d mismatch after round trip", i)
		}
		if q.Visual == nil || q.Visual.Kind != orig.Visual.Kind {
			t.Errorf("question %d visual lost", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","questions":[{"id":"a","category":"Nope","type":"MC"}]}`)); err == nil {
		t.Error("unknown category accepted")
	}
}

// --- Misc ---------------------------------------------------------------------

func TestByCategoryAndFilter(t *testing.T) {
	b := &Benchmark{Questions: []*Question{
		sampleQuestion("q1", MultipleChoice),
		sampleQuestion("q2", ShortAnswer),
	}}
	by := b.ByCategory()
	if len(by[Digital]) != 2 {
		t.Errorf("by category %v", by)
	}
	mc := b.Filter(func(q *Question) bool { return q.Type == MultipleChoice })
	if len(mc) != 1 || mc[0].ID != "q1" {
		t.Errorf("filter %v", mc)
	}
}

func TestCategoryNames(t *testing.T) {
	if Digital.String() != "Digital Design" || Digital.Short() != "Digital" {
		t.Error("category names")
	}
	if Category(99).String() == "" || QType(0).String() != "MC" || QType(1).String() != "SA" {
		t.Error("name fallbacks")
	}
}

func TestSAConstructors(t *testing.T) {
	scene := visual.NewScene(visual.KindDiagram, "s")
	scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Critical: true})

	num := NewSANumber("sn1", Physical, "t", "how many?", scene, 7, "hops", 0, 0.5)
	if err := num.Validate(); err != nil {
		t.Fatal(err)
	}
	if num.Golden.Kind != AnswerNumber || num.Golden.Number != 7 {
		t.Errorf("golden %+v", num.Golden)
	}
	if num.Golden.Tolerance != 0.02 {
		t.Errorf("default tolerance %v", num.Golden.Tolerance)
	}

	ph := NewSAPhrase("sp1", Manufacture, "t", "what is it?", scene,
		"develop", []string{"development"}, 0.4)
	if err := ph.Validate(); err != nil {
		t.Fatal(err)
	}
	if ph.Golden.Kind != AnswerPhrase || len(ph.Golden.Accept) != 1 {
		t.Errorf("golden %+v", ph.Golden)
	}
}

func TestDistinctOptions(t *testing.T) {
	got := DistinctOptions("x", "a", "x", "b", "a", "c", "d")
	want := [3]string{"a", "b", "c"}
	if got != want {
		t.Errorf("DistinctOptions = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("insufficient candidates should panic")
		}
	}()
	DistinctOptions("x", "a", "a")
}
