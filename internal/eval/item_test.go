package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// itemReports builds three model reports over five shared questions with
// a known structure: q0 everyone solves, q1 nobody, q2 only the strongest
// model, q3 only the weakest model (negative discrimination), q4 the top
// two. Totals: strong 3/5, middle 2/5, weak 1/5... weak also solves q3,
// so 2/5 — still strictly below strong.
func itemReports() []*Report {
	mk := func(name string, correct [5]bool) *Report {
		r := &Report{ModelName: name}
		ids := []string{"q0", "q1", "q2", "q3", "q4"}
		for i, id := range ids {
			r.Results = append(r.Results, QuestionResult{
				QuestionID: id,
				Category:   dataset.Category(i % dataset.NumCategories),
				Correct:    correct[i],
			})
		}
		return r
	}
	return []*Report{
		mk("strong", [5]bool{true, false, true, false, true}),
		mk("middle", [5]bool{true, false, false, false, true}),
		mk("weak", [5]bool{true, false, false, true, false}),
	}
}

func TestItemAnalysisKnown(t *testing.T) {
	items, err := ItemAnalysis(itemReports())
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("%d items", len(items))
	}
	byID := map[string]ItemStats{}
	for _, it := range items {
		byID[it.QuestionID] = it
	}
	if byID["q0"].Difficulty != 1 {
		t.Errorf("q0 difficulty %v, want 1", byID["q0"].Difficulty)
	}
	if byID["q1"].Difficulty != 0 {
		t.Errorf("q1 difficulty %v, want 0", byID["q1"].Difficulty)
	}
	if d := byID["q2"].Difficulty; math.Abs(d-1.0/3) > 1e-9 {
		t.Errorf("q2 difficulty %v, want 1/3", d)
	}
	// q2 separates strong from weak: positive discrimination. q3 is
	// anti-discriminating.
	if byID["q2"].Discrimination <= 0 {
		t.Errorf("q2 discrimination %v, want positive", byID["q2"].Discrimination)
	}
	if byID["q3"].Discrimination >= 0 {
		t.Errorf("q3 discrimination %v, want negative", byID["q3"].Discrimination)
	}
	// Constant items carry no discrimination signal.
	if byID["q0"].Discrimination != 0 || byID["q1"].Discrimination != 0 {
		t.Error("constant items should have zero discrimination")
	}
	if len(byID["q2"].CorrectModels) != 1 || byID["q2"].CorrectModels[0] != "strong" {
		t.Errorf("q2 solvers %v", byID["q2"].CorrectModels)
	}
}

func TestItemAnalysisErrors(t *testing.T) {
	reps := itemReports()
	if _, err := ItemAnalysis(reps[:1]); err == nil {
		t.Error("single-model analysis accepted")
	}
	// Mismatched sizes.
	bad := &Report{ModelName: "bad", Results: reps[0].Results[:2]}
	if _, err := ItemAnalysis([]*Report{reps[0], bad}); err == nil {
		t.Error("mismatched sizes accepted")
	}
	// Mismatched order.
	swapped := &Report{ModelName: "swapped"}
	swapped.Results = append(swapped.Results, reps[0].Results[1], reps[0].Results[0],
		reps[0].Results[2], reps[0].Results[3])
	if _, err := ItemAnalysis([]*Report{reps[0], swapped}); err == nil {
		t.Error("mismatched order accepted")
	}
}

func TestHardestItems(t *testing.T) {
	items, err := ItemAnalysis(itemReports())
	if err != nil {
		t.Fatal(err)
	}
	hard := HardestItems(items, 2)
	if len(hard) != 2 || hard[0].QuestionID != "q1" {
		t.Errorf("hardest %v", hard)
	}
	// Oversized k clamps.
	if len(HardestItems(items, 99)) != 5 {
		t.Error("k clamp failed")
	}
	// A negative k clamps to none instead of panicking.
	if hard := HardestItems(items, -1); len(hard) != 0 {
		t.Errorf("k = -1 listed %d items, want 0", len(hard))
	}
}

// TestHardestItemsTieBreaks pins the full sort key: difficulty, then
// discrimination, then QuestionID — so items tied on both statistics
// still list in a deterministic, position-independent order.
func TestHardestItemsTieBreaks(t *testing.T) {
	items := []ItemStats{
		{QuestionID: "q-c", Difficulty: 0.25, Discrimination: 0.5},
		{QuestionID: "q-a", Difficulty: 0.25, Discrimination: 0.5},
		{QuestionID: "q-b", Difficulty: 0.25, Discrimination: 0.5},
		{QuestionID: "q-sharp", Difficulty: 0.25, Discrimination: 0.9},
		{QuestionID: "q-easy", Difficulty: 0.75, Discrimination: 0.1},
		{QuestionID: "q-hard", Difficulty: 0.10, Discrimination: 0.9},
	}
	want := []string{"q-hard", "q-a", "q-b", "q-c", "q-sharp", "q-easy"}
	got := HardestItems(items, len(items))
	for i, it := range got {
		if it.QuestionID != want[i] {
			t.Fatalf("position %d: %s, want %s (full order %v)", i, it.QuestionID, want[i], got)
		}
	}
	// The order is a pure function of the stats: a permuted input gives
	// the identical listing.
	perm := []ItemStats{items[4], items[0], items[5], items[2], items[1], items[3]}
	for i, it := range HardestItems(perm, len(perm)) {
		if it.QuestionID != want[i] {
			t.Fatalf("permuted input: position %d is %s, want %s", i, it.QuestionID, want[i])
		}
	}
}

func TestDifficultySpreadAndFormat(t *testing.T) {
	items, err := ItemAnalysis(itemReports())
	if err != nil {
		t.Fatal(err)
	}
	spread := DifficultySpread(items)
	if len(spread) == 0 {
		t.Fatal("empty spread")
	}
	for c, s := range spread {
		if s[0] > s[1] || s[1] > s[2] {
			t.Errorf("category %v spread unordered: %v", c, s)
		}
	}
	out := FormatItemReport(items, 2)
	for _, frag := range []string{"item analysis", "hardest 2", "q1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}
