package adaptive

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/visual"
)

// testBank builds a small benchmark plus a calibrated-looking bank with
// a spread of item locations, so selection has real choices to make.
func testBank(t *testing.T, n int) (*dataset.Benchmark, []BankItem) {
	t.Helper()
	b := &dataset.Benchmark{Name: "t"}
	params := make([]ItemParams, n)
	for i := 0; i < n; i++ {
		scene := visual.NewScene(visual.KindSchematic, "s")
		scene.Add(visual.Element{Type: visual.ElemBox, Name: "b", Critical: true})
		id := fmt.Sprintf("t%03d", i)
		b.Questions = append(b.Questions, &dataset.Question{
			ID: id, Category: dataset.Category(i % dataset.NumCategories),
			Type: dataset.MultipleChoice, Prompt: "p?", Difficulty: 0.5,
			Visual:  scene,
			Choices: []string{"w", "x", "right", "z"},
			Golden:  dataset.Answer{Kind: dataset.AnswerChoice, Choice: 2, Text: "right"},
		})
		params[i] = ItemParams{
			QuestionID: id,
			Disc:       0.5 + 1.5*float64(i%4)/3,
			Diff:       -2 + 4*float64(i)/float64(n-1),
		}
	}
	bank, err := Bank(b, params)
	if err != nil {
		t.Fatal(err)
	}
	return b, bank
}

// skillModel answers correctly with a deterministic per-question draw
// at the given rate — a stand-in VLM whose behaviour is a pure function
// of (name, question ID).
type skillModel struct {
	name string
	rate float64
}

func (m skillModel) Name() string { return m.name }
func (m skillModel) Answer(q *dataset.Question, _ eval.InferenceOptions) string {
	if rng.Bernoulli(m.rate, "test-skill", m.name, q.ID) {
		return "right"
	}
	return "w"
}

func testModels() []eval.Model {
	return []eval.Model{
		skillModel{"weak", 0.15},
		skillModel{"mid", 0.45},
		skillModel{"strong", 0.80},
	}
}

func TestBankValidation(t *testing.T) {
	b, bank := testBank(t, 10)
	params := make([]ItemParams, len(bank))
	for i, it := range bank {
		params[i] = it.Params
	}
	if _, err := Bank(b, params[:9]); err == nil {
		t.Error("Bank accepted a missing item param")
	}
	dup := append(append([]ItemParams{}, params...), params[0])
	if _, err := Bank(b, dup); err == nil {
		t.Error("Bank accepted duplicate item params")
	}
	wrong := append([]ItemParams{}, params...)
	wrong[3].QuestionID = "no-such-question"
	if _, err := Bank(b, wrong); err == nil {
		t.Error("Bank accepted params for an unknown question")
	}
}

func TestNewTournamentValidation(t *testing.T) {
	_, bank := testBank(t, 10)
	models := testModels()
	if _, err := NewTournament(nil, bank, Config{}); err == nil {
		t.Error("accepted empty model list")
	}
	if _, err := NewTournament(models, nil, Config{}); err == nil {
		t.Error("accepted empty bank")
	}
	if _, err := NewTournament(append(models, models[0]), bank, Config{}); err == nil {
		t.Error("accepted duplicate model")
	}
	broken := append([]BankItem{}, bank...)
	broken[2].Params.QuestionID = "mismatch"
	if _, err := NewTournament(models, broken, Config{}); err == nil {
		t.Error("accepted bank item whose params name a different question")
	}
	broken = append([]BankItem{}, bank...)
	broken[4].Question = bank[5].Question
	if _, err := NewTournament(models, broken, Config{}); err == nil {
		t.Error("accepted duplicate bank question")
	}
	// Non-finite or non-positive parameters would make Information NaN
	// or meaningless, and a NaN compares neither above nor below the
	// best candidate, so selection would depend on bank order.
	for _, p := range []struct{ disc, diff float64 }{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 0},
		{-1, 0},
		{1, math.NaN()},
		{1, math.Inf(1)},
		{1, math.Inf(-1)},
	} {
		broken = append([]BankItem{}, bank...)
		broken[3].Params.Disc, broken[3].Params.Diff = p.disc, p.diff
		if _, err := NewTournament(models, broken, Config{}); err == nil {
			t.Errorf("accepted item params disc %v diff %v", p.disc, p.diff)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(150, 12)
	if c.Seed != "adaptive" {
		t.Errorf("Seed default %q", c.Seed)
	}
	if c.MaxQuestions != 150 {
		t.Errorf("MaxQuestions default %d, want bank size", c.MaxQuestions)
	}
	if c.TotalBudget != 600 {
		t.Errorf("TotalBudget default %d, want models*bank/3 = 600", c.TotalBudget)
	}
	if c.MinQuestions != 6 || c.Z != 1.96 || c.SEStop != 0.15 {
		t.Errorf("defaults %+v", c)
	}
	// The budget floor always admits the seeded first question per model.
	if c := (Config{TotalBudget: 1}).withDefaults(150, 12); c.TotalBudget != 12 {
		t.Errorf("TotalBudget floor %d, want one per model", c.TotalBudget)
	}
	if c := (Config{MinQuestions: 50, MaxQuestions: 20}).withDefaults(150, 3); c.MinQuestions != 20 {
		t.Errorf("MinQuestions %d not clamped to MaxQuestions", c.MinQuestions)
	}
}

// transcript renders the full observable adaptive run — the canonical
// event order with annotations — as one string for byte comparison.
func transcript(evs []eval.Event) string {
	var sb strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&sb, "%d %s %s %q %v %v %.17g %.17g %q\n",
			ev.Seq, ev.Model.Name(), ev.Question.ID, ev.Response, ev.Correct,
			ev.Adaptive, ev.Ability, ev.AbilitySE, ev.StopReason)
	}
	return sb.String()
}

func runTournament(t *testing.T, workers int, cfg Config, cancelAt int) (string, *Tournament, []*eval.Report) {
	t.Helper()
	_, bank := testBank(t, 36)
	models := testModels()
	trn, err := NewTournament(models, bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evs []eval.Event
	r := eval.Runner{Workers: workers, Observer: eval.ObserverFunc(func(ev eval.Event) {
		evs = append(evs, ev)
		if cancelAt >= 0 && ev.Seq == cancelAt {
			cancel()
		}
	})}
	reports, err := r.EvaluateAdaptiveContext(ctx, models, trn)
	if cancelAt >= 0 {
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	return transcript(evs), trn, reports
}

// TestTournamentDeterministicAcrossWorkers is the §6 invariant extended
// to dynamic scheduling: the complete adaptive transcript — item
// choices, outcomes, posterior updates, stop reasons — is byte-identical
// for 1, 2 and 8 workers (run under -race in CI).
func TestTournamentDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Seed: "det"}
	want, wantTrn, _ := runTournament(t, 1, cfg, -1)
	if want == "" {
		t.Fatal("empty transcript")
	}
	for _, workers := range []int{2, 8} {
		got, gotTrn, _ := runTournament(t, workers, cfg, -1)
		if got != want {
			t.Fatalf("workers=%d transcript differs from serial run:\n%s\nvs\n%s", workers, got, want)
		}
		if gotTrn.QuestionsAsked() != wantTrn.QuestionsAsked() {
			t.Fatalf("workers=%d asked %d, serial asked %d", workers, gotTrn.QuestionsAsked(), wantTrn.QuestionsAsked())
		}
		a, b := wantTrn.Standings(), gotTrn.Standings()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d standing %d: %+v vs %+v", workers, i, b[i], a[i])
			}
		}
	}
}

// TestTournamentSeedReproducible: two runs with the same Config.Seed
// are identical transcripts — the bit-reproducibility-given-(models,
// seed) half of the acceptance contract.
func TestTournamentSeedReproducible(t *testing.T) {
	a1, _, _ := runTournament(t, 4, Config{Seed: "s1"}, -1)
	a2, _, _ := runTournament(t, 4, Config{Seed: "s1"}, -1)
	if a1 != a2 {
		t.Fatal("same seed produced different transcripts")
	}
}

// TestTournamentCancelPrefix: cancelling mid-run delivers exactly the
// canonical prefix — byte-equal to the head of the uncancelled
// transcript — for any worker count, and reports hold per-model
// prefixes of the full run's results.
func TestTournamentCancelPrefix(t *testing.T) {
	cfg := Config{Seed: "prefix"}
	full, _, fullReports := runTournament(t, 1, cfg, -1)
	const cancelAt = 17
	for _, workers := range []int{1, 2, 8} {
		got, _, gotReports := runTournament(t, workers, cfg, cancelAt)
		lines := strings.SplitAfter(full, "\n")
		want := strings.Join(lines[:cancelAt+1], "")
		if got != want {
			t.Fatalf("workers=%d: cancelled transcript is not the canonical prefix:\n%s\nvs\n%s", workers, got, want)
		}
		for mi := range gotReports {
			g, f := gotReports[mi].Results, fullReports[mi].Results
			if len(g) > len(f) {
				t.Fatalf("workers=%d model %d: partial run has more results than full run", workers, mi)
			}
			for i := range g {
				if g[i] != f[i] {
					t.Fatalf("workers=%d model %d result %d: %+v vs full %+v", workers, mi, i, g[i], f[i])
				}
			}
		}
	}
}

// TestTournamentBudgetsAndStops pins the stopping machinery: the global
// budget binds exactly, per-model caps bind, and every seat ends frozen
// with a non-empty reason.
func TestTournamentBudgetsAndStops(t *testing.T) {
	// Z is blown up so the separation stop can never fire and SEStop is
	// driven out of reach, isolating the budget machinery under test.
	t.Run("global-budget", func(t *testing.T) {
		cfg := Config{Seed: "b", TotalBudget: 30, SEStop: 0.0001, Z: 1e9}
		_, trn, _ := runTournament(t, 4, cfg, -1)
		if got := trn.QuestionsAsked(); got != 30 {
			t.Fatalf("asked %d, want the exact global budget 30", got)
		}
		for _, st := range trn.Standings() {
			if st.StopReason == "" {
				t.Fatalf("model %s finished without a stop reason", st.Model)
			}
		}
	})
	t.Run("per-model-cap", func(t *testing.T) {
		cfg := Config{Seed: "b", MaxQuestions: 7, SEStop: 0.0001, Z: 1e9}
		_, trn, _ := runTournament(t, 4, cfg, -1)
		for _, st := range trn.Standings() {
			if st.Asked > 7 {
				t.Fatalf("model %s asked %d > cap 7", st.Model, st.Asked)
			}
			if st.StopReason != "budget" {
				t.Fatalf("model %s stopped %q, want budget", st.Model, st.StopReason)
			}
		}
	})
	t.Run("exhausted", func(t *testing.T) {
		// Budget larger than models*bank: every chain drains the bank.
		cfg := Config{Seed: "b", TotalBudget: 1000, SEStop: 0.0001, Z: 1e9}
		_, trn, _ := runTournament(t, 4, cfg, -1)
		for _, st := range trn.Standings() {
			if st.Asked != 36 || st.StopReason != "exhausted" {
				t.Fatalf("model %s: asked %d stop %q, want 36/exhausted", st.Model, st.Asked, st.StopReason)
			}
		}
	})
}

// TestTournamentAnnotatesEvents: every delivered event carries the
// adaptive annotations, the final event per model carries its stop
// reason, and ability matches the recorded standings.
func TestTournamentAnnotatesEvents(t *testing.T) {
	_, bank := testBank(t, 36)
	models := testModels()
	trn, err := NewTournament(models, bank, Config{Seed: "ann"})
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[string]eval.Event)
	count := make(map[string]int)
	r := eval.Runner{Workers: 4, Observer: eval.ObserverFunc(func(ev eval.Event) {
		if !ev.Adaptive {
			t.Errorf("event %d not marked adaptive", ev.Seq)
		}
		if ev.StopReason != "" && last[ev.Model.Name()].StopReason != "" {
			t.Errorf("model %s has two stop-reason events", ev.Model.Name())
		}
		last[ev.Model.Name()] = ev
		count[ev.Model.Name()]++
	})}
	reports, err := r.EvaluateAdaptiveContext(context.Background(), models, trn)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range trn.Standings() {
		ev, ok := last[st.Model]
		if !ok {
			t.Fatalf("model %s delivered no events", st.Model)
		}
		if ev.StopReason != st.StopReason {
			t.Errorf("model %s final event stop %q, standings say %q", st.Model, ev.StopReason, st.StopReason)
		}
		if ev.Ability != st.Ability || ev.AbilitySE != st.SE {
			t.Errorf("model %s final event ability (%v, %v), standings (%v, %v)",
				st.Model, ev.Ability, ev.AbilitySE, st.Ability, st.SE)
		}
		if count[st.Model] != st.Asked {
			t.Errorf("model %s delivered %d events, standings say %d asked", st.Model, count[st.Model], st.Asked)
		}
	}
	// The per-model reports hold the adaptive chains in asked order.
	for mi, rep := range reports {
		if rep.ModelName != models[mi].Name() {
			t.Errorf("report %d for %q, want %q", mi, rep.ModelName, models[mi].Name())
		}
		if len(rep.Results) != count[rep.ModelName] {
			t.Errorf("report %s has %d results, observer saw %d", rep.ModelName, len(rep.Results), count[rep.ModelName])
		}
	}
}

// TestTournamentSharedChains pins the paired-comparison design: models
// with identical outcome histories walk identical item chains (the
// tie-break key deliberately excludes the model), so near-tied models
// are compared on common items.
func TestTournamentSharedChains(t *testing.T) {
	_, bank := testBank(t, 36)
	models := []eval.Model{
		skillModel{"twin-a", 1.0}, // both always right: identical histories
		skillModel{"twin-b", 1.0},
	}
	trn, err := NewTournament(models, bank, Config{Seed: "twin", TotalBudget: 20, SEStop: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	chains := map[string][]string{}
	r := eval.Runner{Workers: 4, Observer: eval.ObserverFunc(func(ev eval.Event) {
		chains[ev.Model.Name()] = append(chains[ev.Model.Name()], ev.Question.ID)
	})}
	if _, err := r.EvaluateAdaptiveContext(context.Background(), models, trn); err != nil {
		t.Fatal(err)
	}
	a, b := chains["twin-a"], chains["twin-b"]
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("chain lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("twins diverged at step %d: %s vs %s", i, a[i], b[i])
		}
	}
}
