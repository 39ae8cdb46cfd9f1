package eval

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// --- Normalisation -----------------------------------------------------

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  Hello World.  ", "hello world"},
		{"A,  B", "a b"},
		{"Multi\n  line\ttext", "multi line text"},
		{"keep-dashes_and'quotes", "keep-dashes_and'quotes"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in    string
		value float64
		unit  string
		ok    bool
	}{
		{"2.2 kOhm", 2200, "ohm", true},
		{"-10 V/V", -10, "v/v", true},
		{"4 mS", 0.004, "s", true},
		{"100 uA", 100e-6, "a", true},
		{"about 43 nm of silicon", 43, "nm", true},
		{"5.5 minutes", 5.5, "min", true},
		{"answer: 42", 42, "", true},
		{"1e4 rad/s", 1e4, "rad/s", true},
		{"10 krad/s", 1e4, "rad/s", true},
		{"60%", 60, "percent", true},
		{"3 mV", 0.003, "v", true},
		{"625 MHz", 625e6, "hz", true},
		{"1.5 GHz", 1.5e9, "hz", true},
		{"no numbers here", 0, "", false},
		{"", 0, "", false},
		{"-3", -3, "", true},
		{"7 hops", 7, "count", true},
		{"0.085 Ohm/sq", 0.085, "ohm/sq", true},
		{"12 edges", 12, "count", true},
		// Unicode regression: full case-mapping must not desync byte
		// offsets (found by fuzzing: 'İ' lowers to a longer sequence).
		{"İİİİİİ 42 Hz", 42, "hz", true},
	}
	for _, c := range cases {
		v, u, ok := ParseNumber(c.in)
		if ok != c.ok {
			t.Errorf("ParseNumber(%q) ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if u != c.unit {
			t.Errorf("ParseNumber(%q) unit=%q, want %q", c.in, u, c.unit)
		}
		if !NumbersClose(v, c.value, 1e-9) {
			t.Errorf("ParseNumber(%q) value=%v, want %v", c.in, v, c.value)
		}
	}
}

func TestNumbersClose(t *testing.T) {
	if !NumbersClose(100, 102, 0.05) {
		t.Error("2% off should pass 5% tolerance")
	}
	if NumbersClose(100, 120, 0.05) {
		t.Error("20% off should fail 5% tolerance")
	}
	if !NumbersClose(5, 5, 0) {
		t.Error("exact equality with zero tolerance")
	}
	if NumbersClose(5, 6, 0) {
		t.Error("zero tolerance should be exact")
	}
	if !NumbersClose(0, 0, 0.02) {
		t.Error("zero-zero")
	}
}

func TestQuickParseNumberRoundTrip(t *testing.T) {
	// Property: formatting a float and reparsing it recovers the value.
	f := func(raw int32) bool {
		v := float64(raw) / 100
		got, _, ok := ParseNumber(fmt.Sprintf("%g", v))
		return ok && NumbersClose(got, v, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Judge ----------------------------------------------------------------

func mcQuestion() *dataset.Question {
	scene := visual.NewScene(visual.KindSchematic, "s")
	scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Critical: true})
	return &dataset.Question{
		ID: "jq1", Category: dataset.Digital, Type: dataset.MultipleChoice,
		Prompt: "pick one", Difficulty: 0.5, Visual: scene,
		Choices: []string{"half adder", "full adder", "comparator", "decoder"},
		Golden:  dataset.Answer{Kind: dataset.AnswerChoice, Choice: 1, Text: "full adder"},
	}
}

func TestJudgeChoiceLetterForms(t *testing.T) {
	q := mcQuestion()
	j := Judge{}
	correct := []string{"b", "B", "b)", "(b)", "b.", "option b", "choice B:", "answer: b", "b) full adder"}
	for _, r := range correct {
		if !j.Correct(q, r) {
			t.Errorf("response %q should be correct", r)
		}
	}
	wrong := []string{"a", "c)", "(d)", "answer: a", "", "e", "because"}
	for _, r := range wrong {
		if j.Correct(q, r) {
			t.Errorf("response %q should be wrong", r)
		}
	}
}

func TestJudgeChoiceContentMatch(t *testing.T) {
	q := mcQuestion()
	j := Judge{}
	if !j.Correct(q, "full adder") {
		t.Error("bare correct content rejected")
	}
	if !j.Correct(q, "it is a full adder circuit") {
		t.Error("correct content in a sentence rejected")
	}
	if j.Correct(q, "half adder") {
		t.Error("wrong option content accepted")
	}
	// Ambiguity: mentioning two options is not an answer.
	if j.Correct(q, "either a full adder or a half adder") {
		t.Error("ambiguous response accepted")
	}
	// Strict mode: content matching disabled.
	if (Judge{Strict: true}).Correct(q, "full adder") {
		t.Error("strict judge should require a letter")
	}
}

func TestJudgeWordBoundaryRegression(t *testing.T) {
	// The bug class fixed during development: "standard" must not match
	// the golden "and"; substrings need word boundaries.
	q := &dataset.Question{
		Golden: dataset.Answer{Kind: dataset.AnswerPhrase, Text: "AND"},
	}
	j := Judge{}
	if j.Correct(q, "it is a standard configuration") {
		t.Error("'standard' matched golden 'and'")
	}
	if !j.Correct(q, "AND") {
		t.Error("exact short phrase rejected")
	}
	q2 := &dataset.Question{
		Golden: dataset.Answer{Kind: dataset.AnswerPhrase, Text: "hold violations",
			Accept: []string{"hold"}},
	}
	if !j.Correct(q2, "it fixes hold violations") {
		t.Error("word-boundary phrase rejected")
	}
	if !j.Correct(q2, "hold time fixing") {
		t.Error("accepted synonym rejected")
	}
	if j.Correct(q2, "household issues") {
		t.Error("'household' matched 'hold'")
	}
}

func TestJudgeNumber(t *testing.T) {
	j := Judge{}
	q := &dataset.Question{
		Golden: dataset.Answer{Kind: dataset.AnswerNumber, Number: 2200, Unit: "Ohm", Tolerance: 0.02},
	}
	for _, good := range []string{"2200 Ohm", "2.2 kOhm", "2200", "approximately 2.2 kohm", "2180 ohms"} {
		if !j.Correct(q, good) {
			t.Errorf("%q should be accepted", good)
		}
	}
	for _, bad := range []string{"2.2 Ohm", "2200 V", "4.4 kOhm", "nothing", "2.2 kHz"} {
		if j.Correct(q, bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
	// Unit-bearing golden vs scaled response unit.
	qm := &dataset.Question{
		Golden: dataset.Answer{Kind: dataset.AnswerNumber, Number: 625, Unit: "MHz", Tolerance: 0.02},
	}
	for _, good := range []string{"625 MHz", "0.625 GHz", "625"} {
		if !j.Correct(qm, good) {
			t.Errorf("%q should be accepted for 625 MHz", good)
		}
	}
}

func TestJudgeExpression(t *testing.T) {
	j := Judge{}
	q := &dataset.Question{
		Golden: dataset.Answer{Kind: dataset.AnswerExpression, Text: "F = A'B + AB'"},
	}
	for _, good := range []string{"A'B + AB'", "F = AB' + A'B", "A ^ B", "F = A ^ B"} {
		if !j.Correct(q, good) {
			t.Errorf("%q should be equivalent", good)
		}
	}
	for _, bad := range []string{"A + B", "AB", "gibberish((", ""} {
		if j.Correct(q, bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
}

func TestJudgePhraseAccepts(t *testing.T) {
	j := Judge{}
	q := &dataset.Question{
		Golden: dataset.Answer{
			Kind: dataset.AnswerPhrase, Text: "clock tree synthesis",
			Accept: []string{"CTS"},
		},
	}
	for _, good := range []string{"clock tree synthesis", "Clock Tree Synthesis.", "the CTS step", "it performs clock tree synthesis before routing"} {
		if !j.Correct(q, good) {
			t.Errorf("%q should be accepted", good)
		}
	}
	if j.Correct(q, "routing") {
		t.Error("wrong phrase accepted")
	}
}

// --- Runner ---------------------------------------------------------------

type fixedModel struct {
	name string
	fn   func(q *dataset.Question) string
}

func (m fixedModel) Name() string { return m.name }
func (m fixedModel) Answer(q *dataset.Question, _ InferenceOptions) string {
	return m.fn(q)
}

func testBenchmark(n int) *dataset.Benchmark {
	b := &dataset.Benchmark{Name: "t"}
	for i := 0; i < n; i++ {
		scene := visual.NewScene(visual.KindSchematic, "s")
		scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Critical: true})
		cat := dataset.Category(i % dataset.NumCategories)
		b.Questions = append(b.Questions, &dataset.Question{
			ID: fmt.Sprintf("t%02d", i), Category: cat,
			Type: dataset.MultipleChoice, Prompt: "p?", Difficulty: 0.5,
			Visual:  scene,
			Choices: []string{"w", "x", "right", "z"},
			Golden:  dataset.Answer{Kind: dataset.AnswerChoice, Choice: 2, Text: "right"},
		})
	}
	return b
}

func TestRunnerPass1(t *testing.T) {
	b := testBenchmark(10)
	always := fixedModel{"always", func(q *dataset.Question) string { return "c" }}
	never := fixedModel{"never", func(q *dataset.Question) string { return "a" }}
	r := Runner{}
	if p := r.Evaluate(always, b).Pass1(); p != 1 {
		t.Errorf("always-right pass@1 %v", p)
	}
	if p := r.Evaluate(never, b).Pass1(); p != 0 {
		t.Errorf("always-wrong pass@1 %v", p)
	}
	rep := r.Evaluate(always, b)
	by := rep.Pass1ByCategory()
	for c, v := range by {
		if v != 1 {
			t.Errorf("category %v pass %v", c, v)
		}
	}
	for _, q := range rep.Results {
		if !q.Correct {
			t.Errorf("always-right missed %s", q.QuestionID)
		}
	}
}

func TestRunnerConcurrentMatchesSerial(t *testing.T) {
	b := testBenchmark(40)
	m := fixedModel{"half", func(q *dataset.Question) string {
		if q.ID[len(q.ID)-1]%2 == 0 {
			return "c"
		}
		return "a"
	}}
	serial := Runner{Workers: 1}.Evaluate(m, b)
	parallel := Runner{Workers: 8}.Evaluate(m, b)
	if serial.Pass1() != parallel.Pass1() {
		t.Errorf("serial %v != parallel %v", serial.Pass1(), parallel.Pass1())
	}
	for i := range serial.Results {
		if serial.Results[i] != parallel.Results[i] {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestFormatTableII(t *testing.T) {
	b := testBenchmark(10)
	r := Runner{}
	rep := r.Evaluate(fixedModel{"m1", func(*dataset.Question) string { return "c" }}, b)
	out := FormatTableII([]*Report{rep}, []*Report{rep})
	if out == "" {
		t.Fatal("empty table")
	}
	outSingle := FormatTableII([]*Report{rep}, nil)
	if len(outSingle) >= len(out) {
		t.Error("single-collection table should be narrower")
	}
}

func TestEmptyReport(t *testing.T) {
	rep := &Report{}
	if rep.Pass1() != 0 {
		t.Error("empty report pass@1")
	}
}

func TestEvaluateAll(t *testing.T) {
	b := testBenchmark(10)
	models := []Model{
		fixedModel{"m1", func(*dataset.Question) string { return "c" }},
		fixedModel{"m2", func(*dataset.Question) string { return "a" }},
	}
	reps := Runner{}.EvaluateAll(models, b)
	if len(reps) != 2 || reps[0].ModelName != "m1" || reps[1].ModelName != "m2" {
		t.Fatalf("reports %v", reps)
	}
	if reps[0].Pass1() != 1 || reps[1].Pass1() != 0 {
		t.Errorf("pass@1 %v %v", reps[0].Pass1(), reps[1].Pass1())
	}
}

func TestJudgeExpressionAccepts(t *testing.T) {
	j := Judge{}
	q := &dataset.Question{
		Golden: dataset.Answer{Kind: dataset.AnswerExpression, Text: "F = AB",
			Accept: []string{"F = BA"}},
	}
	if !j.Correct(q, "BA") {
		t.Error("accept-list expression rejected")
	}
	strict := Judge{Strict: true}
	if !strict.Correct(q, "AB") {
		t.Error("strict judge should still take the canonical form")
	}
}

func TestJudgeFuzzNeverPanics(t *testing.T) {
	// The judge must survive arbitrary model output on every answer
	// kind, and essentially never accept random noise.
	goldens := []*dataset.Question{
		mcQuestion(),
		{Golden: dataset.Answer{Kind: dataset.AnswerNumber, Number: 42, Unit: "Hz", Tolerance: 0.02}},
		{Golden: dataset.Answer{Kind: dataset.AnswerExpression, Text: "F = AB + C'"}},
		{Golden: dataset.Answer{Kind: dataset.AnswerPhrase, Text: "clock tree synthesis"}},
	}
	j := Judge{}
	f := func(raw []byte) bool {
		s := string(raw)
		for _, q := range goldens {
			// Must not panic; random bytes must not be judged correct
			// (the probability of randomly hitting an equivalent answer
			// is negligible for these goldens).
			if j.Correct(q, s) {
				// Allow the two real possibilities: a random string that
				// happens to start with the right option letter, or one
				// that happens to contain digits parsing to the golden
				// value (e.g. bytes spelling "42") — those are correct
				// answers, not judge bugs.
				if q.Golden.Kind == dataset.AnswerChoice {
					continue
				}
				if q.Golden.Kind == dataset.AnswerNumber {
					if v, _, ok := ParseNumber(s); ok && NumbersClose(v, q.Golden.Number, q.Golden.Tolerance) {
						continue
					}
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
