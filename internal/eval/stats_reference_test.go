package eval

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// referenceBootstrapCI is a naive sort-based transcription of the
// resampling scheme — same chunked streams, same per-resample CDF
// inversion, but collecting every resample statistic into a float
// slice, sorting it and indexing the percentiles, the way the
// pre-batching implementation did. It is the oracle the batched
// histogram/rank-walk machinery must match bit for bit.
func referenceBootstrapCI(r *Report, resamples int, level float64) ConfidenceInterval {
	n := len(r.Results)
	if n == 0 {
		return ConfidenceInterval{Level: level}
	}
	if resamples < 100 {
		resamples = 100
	}
	k := 0
	for _, q := range r.Results {
		if q.Correct {
			k++
		}
	}
	cdf := binomialCDF(n, k)
	stats := make([]float64, resamples)
	chunks := (resamples + bootstrapChunk - 1) / bootstrapChunk
	prefix := rng.NewHasher("bootstrap", r.ModelName).Int(resamples).Float(level)
	for c := 0; c < chunks; c++ {
		gen := prefix.Int(c).Stream()
		lo := c * bootstrapChunk
		hi := lo + bootstrapChunk
		if hi > resamples {
			hi = resamples
		}
		for b := lo; b < hi; b++ {
			u := gen.Float64()
			// Linear scan instead of binary search: independent of the
			// optimised inversion.
			h := 0
			for h < n && cdf[h] <= u {
				h++
			}
			stats[b] = float64(h) / float64(n)
		}
	}
	sort.Float64s(stats)
	alpha := (1 - level) / 2
	loIdx := clampRank(int(alpha*float64(resamples)), resamples)
	hiIdx := clampRank(int((1-alpha)*float64(resamples)), resamples)
	return ConfidenceInterval{Point: r.Pass1(), Lo: stats[loIdx], Hi: stats[hiIdx], Level: level}
}

// statsTestReport builds a report with a deterministic correctness
// pattern: question i is correct when the keyed stream says so with
// probability p.
func statsTestReport(name string, n int, p float64) *Report {
	r := &Report{ModelName: name}
	for i := 0; i < n; i++ {
		r.Results = append(r.Results, QuestionResult{
			QuestionID: fmt.Sprintf("q%03d", i),
			Correct:    rng.Bernoulli(p, "stats-ref", name, fmt.Sprint(i)),
		})
	}
	return r
}

// TestBootstrapCIMatchesReference proves the batched implementation
// (bitset popcount + hash-prefix keys + binary-search inversion +
// histogram rank-walk selection) reproduces the naive sort-based
// transcription of the same scheme bit for bit, across sizes that
// cover partial chunks, multiple chunks, boundary resample counts,
// and degenerate reports.
func TestBootstrapCIMatchesReference(t *testing.T) {
	configs := []struct {
		n         int
		p         float64
		resamples int
		level     float64
	}{
		{142, 0.62, 2000, 0.95},
		{142, 0.62, 100, 0.95},   // minimum resamples, single partial chunk
		{142, 0.62, 256, 0.90},   // exactly one full chunk
		{142, 0.62, 257, 0.90},   // chunk boundary + 1
		{7, 0.5, 500, 0.99},      // tiny n
		{64, 1.0, 300, 0.95},     // all correct: degenerate interval
		{64, 0.0, 300, 0.95},     // none correct
		{200, 0.3, 1024, 0.6827}, // non-round level exercises the Float key
	}
	for _, cfg := range configs {
		rep := statsTestReport(fmt.Sprintf("m-%d-%v", cfg.n, cfg.p), cfg.n, cfg.p)
		got := rep.BootstrapCI(cfg.resamples, cfg.level)
		want := referenceBootstrapCI(rep, cfg.resamples, cfg.level)
		if got != want {
			t.Errorf("n=%d resamples=%d level=%v:\n got %+v\nwant %+v",
				cfg.n, cfg.resamples, cfg.level, got, want)
		}
	}
}

// TestBinomialCDFExact pins binomialCDF against binomial coefficients
// computed directly at sizes small enough for exact float arithmetic.
func TestBinomialCDFExact(t *testing.T) {
	choose := func(n, k int) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c
	}
	for _, cfg := range []struct{ n, k int }{{10, 3}, {12, 6}, {9, 1}, {20, 19}} {
		p := float64(cfg.k) / float64(cfg.n)
		cdf := binomialCDF(cfg.n, cfg.k)
		sum := 0.0
		for h := 0; h <= cfg.n; h++ {
			sum += choose(cfg.n, h) * math.Pow(p, float64(h)) * math.Pow(1-p, float64(cfg.n-h))
			want := sum
			if h == cfg.n {
				want = 1
			}
			if math.Abs(cdf[h]-want) > 1e-9 {
				t.Errorf("n=%d k=%d: cdf[%d] = %.12f, want %.12f", cfg.n, cfg.k, h, cdf[h], want)
			}
		}
	}
	// Degenerate parameters take the closed-form branches.
	zero := binomialCDF(5, 0)
	for h, v := range zero {
		if v != 1 {
			t.Errorf("k=0: cdf[%d] = %v, want 1", h, v)
		}
	}
	one := binomialCDF(5, 5)
	for h, v := range one {
		want := 0.0
		if h == 5 {
			want = 1
		}
		if v != want {
			t.Errorf("k=n: cdf[%d] = %v, want %v", h, v, want)
		}
	}
}

// TestBootstrapCINormalApprox sanity-checks the interval against the
// normal approximation p ± z*sqrt(p(1-p)/n): with 142 questions and
// 2000 resamples the percentile bootstrap of a binomial must land
// within a couple of discretisation steps of it.
func TestBootstrapCINormalApprox(t *testing.T) {
	rep := statsTestReport("approx", 142, 0.62)
	k := 0
	for _, q := range rep.Results {
		if q.Correct {
			k++
		}
	}
	p := float64(k) / 142
	ci := rep.BootstrapCI(2000, 0.95)
	se := math.Sqrt(p * (1 - p) / 142)
	tol := 3.0 / 142 // three hit-count steps
	if math.Abs(ci.Lo-(p-1.96*se)) > tol {
		t.Errorf("Lo = %.4f, normal approx %.4f (p=%.4f se=%.4f)", ci.Lo, p-1.96*se, p, se)
	}
	if math.Abs(ci.Hi-(p+1.96*se)) > tol {
		t.Errorf("Hi = %.4f, normal approx %.4f", ci.Hi, p+1.96*se)
	}
}

// TestBootstrapCIBoundaryIndexing pins the percentile indexing at
// resamples=100 where int(alpha*float64(resamples)) rounding bites:
// the low index must be clamped exactly like the high one, and extreme
// levels must stay in bounds instead of panicking.
func TestBootstrapCIBoundaryIndexing(t *testing.T) {
	rep := statsTestReport("boundary", 50, 0.4)
	cases := []struct {
		level        float64
		loIdx, hiIdx int
	}{
		{0.95, 2, 97}, // alpha=0.025: int(2.5)=2, int(97.5)=97
		{0.90, 4, 95}, // alpha=(1-0.9)/2 is 0.04999…, not 0.05: int(alpha*100) = 4
		{0.99, 0, 99}, // alpha=0.005: int(0.5)=0, int(99.5)=99
		{1.0, 0, 99},  // alpha=0: low rank 0, high rank clamped from 100
		{0.0, 50, 50}, // alpha=0.5: both ranks int(50)=50 — median
		{1.5, 0, 99},  // alpha<0: low rank clamped up (old code panicked)
	}
	for _, c := range cases {
		if got := clampRank(int((1-c.level)/2*100), 100); got != c.loIdx {
			t.Errorf("level=%v: lo rank = %d, want %d", c.level, got, c.loIdx)
		}
		if got := clampRank(int((1-(1-c.level)/2)*100), 100); got != c.hiIdx {
			t.Errorf("level=%v: hi rank = %d, want %d", c.level, got, c.hiIdx)
		}
		ci := rep.BootstrapCI(100, c.level)
		if ci.Lo > ci.Hi {
			t.Errorf("level=%v: interval inverted: %+v", c.level, ci)
		}
	}
	// The order statistics the clamped ranks select must agree with an
	// explicit sort at the boundary count.
	got := rep.BootstrapCI(100, 0.99)
	want := referenceBootstrapCI(rep, 100, 0.99)
	if got != want {
		t.Errorf("resamples=100 level=0.99: got %+v want %+v", got, want)
	}
}
