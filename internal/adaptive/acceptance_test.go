package adaptive

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/vlm"
)

// TestAdaptiveReproducesFullGridRanking is the headline acceptance
// gate (DESIGN.md §15): on a 12-model × extended-fold tournament the
// adaptive run must reproduce the full-grid ranking exactly (rank
// agreement 1.0 over every strictly ordered pair) while asking at most
// a third of the grid's questions.
func TestAdaptiveReproducesFullGridRanking(t *testing.T) {
	std, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	fold, err := core.BuildExtended("fold-j", 30)
	if err != nil {
		t.Fatal(err)
	}
	models := vlm.NewZoo(std).EvalModels()
	r := eval.Runner{Workers: -1}
	reports, err := r.EvaluateAll(models, fold), error(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(reports))
	for i, rep := range reports {
		ref[i] = rep.Pass1()
	}
	items, err := eval.ItemAnalysis(reports)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := Bank(fold, Calibrate(items))
	if err != nil {
		t.Fatal(err)
	}
	trn, err := NewTournament(models, bank, Config{Seed: "acceptance"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EvaluateAdaptiveContext(context.Background(), models, trn); err != nil {
		t.Fatal(err)
	}
	asked := trn.QuestionsAsked()
	grid := len(models) * len(fold.Questions)
	t.Logf("asked %d of %d grid questions (%.1f%%)", asked, grid, 100*float64(asked)/float64(grid))
	for _, st := range trn.Standings() {
		t.Logf("  %-16s ability %+.3f ± %.3f asked %3d stop %s", st.Model, st.Ability, st.SE, st.Asked, st.StopReason)
	}
	for i, rep := range reports {
		t.Logf("  ref %-16s pass1 %.4f", rep.ModelName, ref[i])
	}
	if asked*3 > grid {
		t.Errorf("adaptive run asked %d questions, want <= 1/3 of the %d-question grid", asked, grid)
	}
	if agr := RankAgreement(ref, trn.Abilities()); agr != 1.0 {
		t.Errorf("rank agreement %.4f, want 1.0", agr)
	}
}
