package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// ItemStats is the classical item analysis of one benchmark question
// across a model population: how hard it is and how well it separates
// strong from weak models. Benchmark papers use exactly this to argue a
// dataset is "comprehensive in difficulty" (the paper's Fig. 1 claim).
type ItemStats struct {
	QuestionID string
	Category   dataset.Category
	// Difficulty is the fraction of models answering correctly (the
	// classical p-value; low = hard).
	Difficulty float64
	// Discrimination is the point-biserial correlation between getting
	// this item right and a model's overall score; near zero or negative
	// items don't separate capability.
	Discrimination float64
	// CorrectModels lists which models solved it.
	CorrectModels []string
}

// ItemAnalysis computes per-question statistics across a set of reports
// over the same benchmark (one report per model).
func ItemAnalysis(reports []*Report) ([]ItemStats, error) {
	if len(reports) < 2 {
		return nil, fmt.Errorf("eval: item analysis needs at least two models, got %d", len(reports))
	}
	n := len(reports[0].Results)
	for _, r := range reports[1:] {
		if len(r.Results) != n {
			return nil, fmt.Errorf("eval: report %q covers %d questions, want %d",
				r.ModelName, len(r.Results), n)
		}
	}
	totals := make([]float64, len(reports))
	for mi, r := range reports {
		totals[mi] = r.Pass1()
	}
	meanTotal, sdTotal := meanStd(totals)

	out := make([]ItemStats, 0, n)
	for qi := 0; qi < n; qi++ {
		id := reports[0].Results[qi].QuestionID
		cat := reports[0].Results[qi].Category
		var correct []string
		vals := make([]float64, len(reports))
		for mi, r := range reports {
			if r.Results[qi].QuestionID != id {
				return nil, fmt.Errorf("eval: question order differs between reports at %d", qi)
			}
			if r.Results[qi].Correct {
				vals[mi] = 1
				correct = append(correct, r.ModelName)
			}
		}
		p, _ := meanStd(vals)
		out = append(out, ItemStats{
			QuestionID:     id,
			Category:       cat,
			Difficulty:     p,
			Discrimination: pointBiserial(vals, totals, meanTotal, sdTotal),
			CorrectModels:  correct,
		})
	}
	return out, nil
}

func meanStd(xs []float64) (mean, sd float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / n)
	return mean, sd
}

// pointBiserial computes corr(item, total score) over models.
func pointBiserial(item, totals []float64, meanTotal, sdTotal float64) float64 {
	pMean, pSD := meanStd(item)
	if pSD == 0 || sdTotal == 0 {
		return 0
	}
	cov := 0.0
	for i := range item {
		cov += (item[i] - pMean) * (totals[i] - meanTotal)
	}
	cov /= float64(len(item))
	return cov / (pSD * sdTotal)
}

// HardestItems returns the k items fewest models solved, hardest first;
// k is clamped to [0, len(items)].
// Equal difficulties order by ascending discrimination (among equally
// hard items, the ones that least separate capability rank first), and
// the final tie-break is QuestionID, so the listing is a total order
// that never depends on input position.
func HardestItems(items []ItemStats, k int) []ItemStats {
	sorted := make([]ItemStats, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Difficulty != sorted[j].Difficulty {
			return sorted[i].Difficulty < sorted[j].Difficulty
		}
		if sorted[i].Discrimination != sorted[j].Discrimination {
			return sorted[i].Discrimination < sorted[j].Discrimination
		}
		return sorted[i].QuestionID < sorted[j].QuestionID
	})
	return sorted[:min(max(k, 0), len(sorted))]
}

// DifficultySpread summarises the distribution of item difficulties per
// category: the benchmark-breadth evidence behind "comprehensive
// difficulties" in the paper's Fig. 1.
func DifficultySpread(items []ItemStats) map[dataset.Category][3]float64 {
	byCat := make(map[dataset.Category][]float64)
	for _, it := range items {
		byCat[it.Category] = append(byCat[it.Category], it.Difficulty)
	}
	out := make(map[dataset.Category][3]float64, len(byCat))
	for c, vals := range byCat {
		sort.Float64s(vals)
		out[c] = [3]float64{vals[0], vals[len(vals)/2], vals[len(vals)-1]}
	}
	return out
}

// FormatItemReport renders the analysis summary.
func FormatItemReport(items []ItemStats, hardestK int) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("item analysis over %d questions\n", len(items)))
	spread := DifficultySpread(items)
	sb.WriteString("difficulty spread (min / median / max solved-fraction):\n")
	for _, c := range dataset.Categories() {
		s, ok := spread[c]
		if !ok {
			continue
		}
		sb.WriteString(fmt.Sprintf("  %-16s %.2f / %.2f / %.2f\n", c, s[0], s[1], s[2]))
	}
	sb.WriteString(fmt.Sprintf("hardest %d items (no or few models solve them):\n", hardestK))
	for _, it := range HardestItems(items, hardestK) {
		solvers := "none"
		if len(it.CorrectModels) > 0 {
			solvers = strings.Join(it.CorrectModels, ", ")
		}
		sb.WriteString(fmt.Sprintf("  %-4s %-14s solved by %.0f%% (disc %.2f): %s\n",
			it.QuestionID, it.Category.Short(), it.Difficulty*100, it.Discrimination, solvers))
	}
	return sb.String()
}
