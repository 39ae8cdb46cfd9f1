package vlm

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
)

func buildAll(t *testing.T) (*dataset.Benchmark, *dataset.Benchmark, *Zoo) {
	t.Helper()
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	return b, b.Challenge(), NewZoo(b)
}

func TestProfilesSanity(t *testing.T) {
	ps := Profiles()
	if len(ps) != 12 {
		t.Fatalf("%d profiles, want 12 (Table II rows)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.BackboneStrength <= 0 || p.BackboneStrength > 1 {
			t.Errorf("%s: backbone strength %v", p.Name, p.BackboneStrength)
		}
		if p.Perception <= 0 || p.Perception > 1 {
			t.Errorf("%s: perception %v", p.Name, p.Perception)
		}
		for c := 0; c < dataset.NumCategories; c++ {
			if p.WithChoice[c] < 0 || p.WithChoice[c] > 1 || p.NoChoice[c] < 0 || p.NoChoice[c] > 1 {
				t.Errorf("%s: rate out of range", p.Name)
			}
		}
	}
	// Exactly one proprietary model.
	proprietary := 0
	for _, p := range ps {
		if !p.OpenSource {
			proprietary++
		}
	}
	if proprietary != 1 {
		t.Errorf("%d proprietary models, want 1 (GPT-4o)", proprietary)
	}
}

func TestLLaVAFamilyOrdered(t *testing.T) {
	fam := LLaVAFamily()
	if len(fam) != 4 {
		t.Fatalf("LLaVA family size %d", len(fam))
	}
	for i := 1; i < len(fam); i++ {
		if fam[i-1].BackboneStrength > fam[i].BackboneStrength {
			t.Error("family not ordered by backbone strength")
		}
	}
}

// TestTableIICalibration is the headline check: measured Pass@1 must
// land on the paper's Table II values within rounding noise (1/44 for
// the largest category).
func TestTableIICalibration(t *testing.T) {
	b, chal, zoo := buildAll(t)
	r := eval.Runner{}
	const tol = 0.03
	for _, m := range zoo.Models() {
		repStd := r.Evaluate(m, b)
		repChal := r.Evaluate(m, chal)
		byStd := repStd.Pass1ByCategory()
		byChal := repChal.Pass1ByCategory()
		for _, c := range dataset.Categories() {
			if d := math.Abs(byStd[c] - m.Profile().WithChoice[c]); d > tol {
				t.Errorf("%s %s with-choice: %.3f vs paper %.3f (off %.3f)",
					m.Name(), c.Short(), byStd[c], m.Profile().WithChoice[c], d)
			}
			if d := math.Abs(byChal[c] - m.Profile().NoChoice[c]); d > tol {
				t.Errorf("%s %s no-choice: %.3f vs paper %.3f (off %.3f)",
					m.Name(), c.Short(), byChal[c], m.Profile().NoChoice[c], d)
			}
		}
	}
}

func TestGPT4oHeadlineNumbers(t *testing.T) {
	b, chal, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	r := eval.Runner{}
	std := r.Evaluate(m, b).Pass1()
	noChoice := r.Evaluate(m, chal).Pass1()
	// The abstract's numbers: 44% and 20%.
	if math.Abs(std-0.44) > 0.015 {
		t.Errorf("GPT-4o standard pass@1 %.3f, paper reports 0.44", std)
	}
	if math.Abs(noChoice-0.20) > 0.015 {
		t.Errorf("GPT-4o challenge pass@1 %.3f, paper reports 0.20", noChoice)
	}
}

func TestEveryModelDropsWithoutChoices(t *testing.T) {
	// §IV-A: "a significant performance drop on all models".
	b, chal, zoo := buildAll(t)
	r := eval.Runner{}
	for _, m := range zoo.Models() {
		std := r.Evaluate(m, b).Pass1()
		noChoice := r.Evaluate(m, chal).Pass1()
		if noChoice > std+0.02 {
			t.Errorf("%s improved without options: %.3f -> %.3f", m.Name(), std, noChoice)
		}
	}
}

func TestResolutionStudy(t *testing.T) {
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	digital := &dataset.Benchmark{Name: "digital", Questions: b.Filter(
		func(q *dataset.Question) bool { return q.Category == dataset.Digital })}
	get := func(f int) float64 {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}}
		return r.Evaluate(m, digital).Pass1()
	}
	p1, p8, p16 := get(1), get(8), get(16)
	// §IV-B: 8x preserves the pass rate; 16x drops 0.49 -> 0.37.
	if math.Abs(p1-p8) > 0.001 {
		t.Errorf("8x downsampling changed pass@1: %.3f -> %.3f", p1, p8)
	}
	if math.Abs(p1-0.486) > 0.02 {
		t.Errorf("1x digital pass@1 %.3f, want ~0.49", p1)
	}
	if math.Abs(p16-0.371) > 0.03 {
		t.Errorf("16x digital pass@1 %.3f, want ~0.37", p16)
	}
}

func TestZooDeterministic(t *testing.T) {
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	z1, z2 := NewZoo(b), NewZoo(b)
	m1, _ := z1.Model("LLaVA-13b")
	m2, _ := z2.Model("LLaVA-13b")
	for _, q := range b.Questions {
		a1 := m1.Answer(q, eval.InferenceOptions{})
		a2 := m2.Answer(q, eval.InferenceOptions{})
		if a1 != a2 {
			t.Fatalf("%s: answers differ between zoo builds: %q vs %q", q.ID, a1, a2)
		}
	}
}

func TestFallbackOnUnknownQuestion(t *testing.T) {
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	scene := visual.NewScene(visual.KindSchematic, "new")
	scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Critical: true})
	q := &dataset.Question{
		ID: "zz-unknown", Category: dataset.Digital, Type: dataset.MultipleChoice,
		Prompt: "new question?", Difficulty: 0.5, Visual: scene,
		Choices: []string{"p", "q", "r", "s"},
		Golden:  dataset.Answer{Kind: dataset.AnswerChoice, Choice: 0, Text: "p"},
	}
	resp := m.Answer(q, eval.InferenceOptions{})
	if resp == "" {
		t.Error("empty response to unknown question")
	}
	// Deterministic too.
	if resp != m.Answer(q, eval.InferenceOptions{}) {
		t.Error("fallback not deterministic")
	}
	_ = b
}

func TestPerceptionFailureResponses(t *testing.T) {
	// At an absurd downsampling factor, answers become perception
	// failures and score zero.
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	p := DefaultPerception()
	p.RecallThreshold = 1.01 // impossible
	m.SetPerception(p)
	defer m.SetPerception(DefaultPerception())
	r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 16}}
	rep := r.Evaluate(m, b)
	if rep.Pass1() > 0.01 {
		t.Errorf("pass@1 %.3f with impossible recall threshold", rep.Pass1())
	}
}

func TestCorrectSetMatchesRunner(t *testing.T) {
	b, chal, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	j := eval.Judge{}
	// The declared correct set must coincide with what the judge scores.
	set := m.CorrectSet(false)
	for _, q := range b.Questions {
		got := j.Correct(q, m.Answer(q, eval.InferenceOptions{}))
		if got != set[q.ID] {
			t.Errorf("std %s: judge=%v set=%v", q.ID, got, set[q.ID])
		}
	}
	setChal := m.CorrectSet(true)
	for _, q := range chal.Questions {
		got := j.Correct(q, m.Answer(q, eval.InferenceOptions{}))
		if got != setChal[q.ID] {
			t.Errorf("chal %s: judge=%v set=%v", q.ID, got, setChal[q.ID])
		}
	}
}

func TestEvalModelsOrder(t *testing.T) {
	b, _, zoo := buildAll(t)
	models := zoo.EvalModels()
	if len(models) != 12 {
		t.Fatalf("%d models", len(models))
	}
	for i, p := range Profiles() {
		if models[i].Name() != p.Name {
			t.Errorf("model %d is %s, want %s", i, models[i].Name(), p.Name)
		}
	}
	_ = b
}

// CorrectSet returns the IDs a model's decision tables mark correct in
// the given run (standard = MC plus native SA; challenge = everything
// as SA): the oracle TestCorrectSetMatchesRunner holds the judged
// answers to.
func (m *SimulatedVLM) CorrectSet(challengeRun bool) map[string]bool {
	out := make(map[string]bool)
	if challengeRun {
		for id, d := range m.sa {
			if d == decSolve {
				out[id] = true
			}
		}
		return out
	}
	for id, d := range m.mc {
		if d == decSolve || d == decGuessCorrect {
			out[id] = true
		}
	}
	for id, d := range m.saStd {
		if d == decSolve {
			out[id] = true
		}
	}
	return out
}
