package eval

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// ConfidenceInterval is a percentile bootstrap interval for Pass@1.
type ConfidenceInterval struct {
	Point float64
	Lo    float64
	Hi    float64
	Level float64 // e.g. 0.95
}

// String renders the interval.
func (ci ConfidenceInterval) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f] @ %.0f%%", ci.Point, ci.Lo, ci.Hi, ci.Level*100)
}

// bootstrapChunk is the number of resamples sharing one rng stream:
// chunk c draws from the stream keyed by c, so a resample's draw
// depends on its index alone. TestBootstrapCIMatchesReference and the
// compare digests of TestCLIOutputsPinned pin the intervals this
// schedule gives.
const bootstrapChunk = 256

// BootstrapCI computes a percentile-bootstrap confidence interval for a
// report's overall Pass@1. With only 142 questions the benchmark's
// Pass@1 estimates carry real sampling noise — roughly ±0.08 at 95% —
// which is worth reporting next to any Table II-style comparison.
// Resampling is deterministic per (model, resamples, level): the
// resamples are split into fixed chunks, each with its own keyed rng
// stream.
//
// The resampling is batched (DESIGN.md §12). A bootstrap resample of a
// binary statistic draws n questions uniformly with replacement and
// counts hits, so the hit count of one resample is distributed exactly
// Binomial(n, K/n) where K is the number of correct answers: instead
// of n per-question index draws, each resample draws a single uniform
// variate and inverts the precomputed binomial CDF — the identical
// Monte Carlo in one draw instead of n (measured ~2.8 ns per index
// draw on the reference host, the per-draw scheme could never reach
// the batched budget). The remaining machinery is allocation-batched:
// the per-question verdicts are packed into a bitset once (K is its
// popcount), each chunk's stream key extends a shared precomputed hash
// prefix instead of formatting fmt.Sprint key strings, resample counts
// accumulate into one histogram, and the two percentile order
// statistics are selected by a rank walk over it rather than sorting
// all resample statistics. TestBootstrapCIMatchesReference pins the
// batched machinery against a naive sort-based transcription of the
// same scheme.
//
//hot:stats bootstrap resampling; per-chunk work must not allocate
func (r *Report) BootstrapCI(resamples int, level float64) ConfidenceInterval {
	n := len(r.Results)
	if n == 0 {
		return ConfidenceInterval{Level: level}
	}
	if resamples < 100 {
		resamples = 100
	}
	// Correctness bitset, packed once; the binomial parameter is its
	// popcount.
	bitset := make([]uint64, (n+63)/64)
	for i, q := range r.Results {
		if q.Correct {
			bitset[i>>6] |= 1 << uint(i&63)
		}
	}
	k := 0
	for _, w := range bitset {
		k += bits.OnesCount64(w)
	}
	cdf := binomialCDF(n, k)
	// hist[h] counts resamples whose hit count is exactly h.
	hist := make([]int, n+1)
	prefix := rng.NewHasher("bootstrap", r.ModelName).Int(resamples).Float(level)
	for c := 0; c*bootstrapChunk < resamples; c++ {
		gen := prefix.Int(c).Stream()
		for range min(bootstrapChunk, resamples-c*bootstrapChunk) {
			hist[invertCDF(cdf, gen.Float64())]++
		}
	}
	alpha := (1 - level) / 2
	loIdx := clampRank(int(alpha*float64(resamples)), resamples)
	hiIdx := clampRank(int((1-alpha)*float64(resamples)), resamples)
	lo := float64(nthHits(hist, loIdx)) / float64(n)
	hi := float64(nthHits(hist, hiIdx)) / float64(n)
	return ConfidenceInterval{Point: r.Pass1(), Lo: lo, Hi: hi, Level: level}
}

// binomialCDF returns the cumulative distribution of Binomial(n, k/n):
// cdf[h] = P(hits <= h). Log-space factorials keep the tails finite
// for any n (a direct pmf recurrence underflows to zero near h=0 once
// (1-p)^n drops below the subnormal range). The last entry is pinned
// to 1 so CDF inversion can never fall off the end.
func binomialCDF(n, k int) []float64 {
	cdf := make([]float64, n+1)
	switch k {
	case 0:
		for i := range cdf {
			cdf[i] = 1
		}
		return cdf
	case n:
		cdf[n] = 1
		return cdf
	}
	p := float64(k) / float64(n)
	lp, lq := math.Log(p), math.Log1p(-p)
	// lgFact[i] = log(i!), built incrementally — no Lgamma calls.
	lgFact := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		lgFact[i] = lgFact[i-1] + math.Log(float64(i))
	}
	sum := 0.0
	for h := 0; h <= n; h++ {
		logPMF := lgFact[n] - lgFact[h] - lgFact[n-h] +
			float64(h)*lp + float64(n-h)*lq
		sum += math.Exp(logPMF)
		cdf[h] = sum
	}
	cdf[n] = 1
	return cdf
}

// invertCDF returns the smallest h with u < cdf[h] — one binomial
// variate per uniform draw.
//
//hot:stats per-resample CDF inversion
func invertCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clampRank clamps a percentile rank into [0, resamples-1]. Both ends
// are clamped identically: historically only the upper index was, and
// an extreme level (level >= 1 pushing alpha <= 0, or a level > 1
// making alpha negative) indexed out of bounds on the low side.
func clampRank(idx, resamples int) int {
	if idx < 0 {
		return 0
	}
	if idx >= resamples {
		return resamples - 1
	}
	return idx
}

// nthHits returns the k-th smallest (0-indexed) resample hit count
// recorded in the histogram — the partial selection that replaces
// sorting. Equivalent to sorting all resample statistics ascending and
// taking element k, because hits/n is monotone in hits.
func nthHits(hist []int, k int) int {
	cum := 0
	for h, cnt := range hist {
		cum += cnt
		if cum > k {
			return h
		}
	}
	return len(hist) - 1
}

// McNemarResult is the outcome of a paired comparison of two models on
// the same benchmark.
type McNemarResult struct {
	// OnlyA counts questions model A got right and B got wrong; OnlyB
	// the reverse; Both and Neither complete the contingency table.
	OnlyA, OnlyB, Both, Neither int
	// Statistic is the continuity-corrected McNemar chi-square.
	Statistic float64
	// PValue is the two-sided p-value (chi-square with 1 dof).
	PValue float64
}

// Significant reports whether the difference is significant at alpha.
func (m McNemarResult) Significant(alpha float64) bool {
	return m.PValue < alpha && m.OnlyA+m.OnlyB > 0
}

// String renders the comparison.
func (m McNemarResult) String() string {
	return fmt.Sprintf("onlyA=%d onlyB=%d both=%d neither=%d chi2=%.3f p=%.3f",
		m.OnlyA, m.OnlyB, m.Both, m.Neither, m.Statistic, m.PValue)
}

// McNemar runs the paired McNemar test between two reports over the same
// question set (matched by question ID). Benchmark papers comparing
// models on a fixed question set should use a paired test — the 142
// shared questions give it far more power than comparing two independent
// Pass@1 values.
func McNemar(a, b *Report) (McNemarResult, error) {
	if len(a.Results) != len(b.Results) {
		return McNemarResult{}, fmt.Errorf("eval: reports cover %d vs %d questions",
			len(a.Results), len(b.Results))
	}
	byID := make(map[string]bool, len(b.Results))
	for _, q := range b.Results {
		byID[q.QuestionID] = q.Correct
	}
	var res McNemarResult
	for _, q := range a.Results {
		bCorrect, ok := byID[q.QuestionID]
		if !ok {
			return McNemarResult{}, fmt.Errorf("eval: question %s missing from second report", q.QuestionID)
		}
		switch {
		case q.Correct && bCorrect:
			res.Both++
		case q.Correct:
			res.OnlyA++
		case bCorrect:
			res.OnlyB++
		default:
			res.Neither++
		}
	}
	n := res.OnlyA + res.OnlyB
	if n == 0 {
		res.Statistic = 0
		res.PValue = 1
		return res, nil
	}
	diff := math.Abs(float64(res.OnlyA-res.OnlyB)) - 1 // continuity correction
	if diff < 0 {
		diff = 0
	}
	res.Statistic = diff * diff / float64(n)
	// Chi-square(1) survival function: P(X > x) = erfc(sqrt(x/2)).
	res.PValue = math.Erfc(math.Sqrt(res.Statistic / 2))
	return res, nil
}
