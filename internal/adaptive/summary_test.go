package adaptive

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// shapedEstimator holds a log-posterior of the given shape: a parabola
// of curvature curv around center, tilted by tilt·θ, with lo and hi
// added at the two grid ends.
func shapedEstimator(center, curv, tilt, lo, hi float64) *Estimator {
	e := &Estimator{}
	for k := range e.logpost {
		th := gridTheta(k)
		e.logpost[k] = -curv*(th-center)*(th-center) + tilt*th
	}
	e.logpost[0] += lo
	e.logpost[gridN-1] += hi
	return e
}

// checkSummary fails unless summary returns summaryRef's bits.
func checkSummary(t *testing.T, e *Estimator, what string) {
	t.Helper()
	ability, se, _ := e.summary()
	wantAbility, wantSE := e.summaryRef()
	if math.Float64bits(ability) != math.Float64bits(wantAbility) || math.Float64bits(se) != math.Float64bits(wantSE) {
		t.Fatalf("%s: summary (%v, %v), oracle (%v, %v)", what, ability, se, wantAbility, wantSE)
	}
}

// FuzzSummaryMatchesRef: skipping absorbed exp terms never changes a
// bit of the posterior mean or SE, whatever the posterior's shape.
func FuzzSummaryMatchesRef(f *testing.F) {
	f.Add(-2.5, 50.0, 0.0, 0.0, 0.0) // an exhausted seat: mass at -2.5, long right tail
	f.Add(3.5, 50.0, 0.0, 0.0, 0.0)  // a long left tail, added while the sums are small
	f.Add(0.0, 50.0, 0.0, 0.0, 0.0)  // mean 0: mSum near zero
	f.Add(0.05, 30.0, 0.0, 0.0, 0.0) // mean between grid points
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)   // flat
	f.Add(0.0, 5.0, 0.0, 60.0, 60.0) // spikes at both grid ends
	f.Add(-4.0, 0.0, -20.0, 0.0, 0.0)
	f.Add(0.0, 2.25, 0.0, 0.0, 0.0)    // d reaches -36 at the ends
	f.Add(0.0, 46.5625, 0.0, 0.0, 0.0) // d reaches -745, where exp underflows
	f.Add(-2.5, 2e4, 0.0, 0.0, 0.0)    // d reaches -1e5
	f.Fuzz(func(t *testing.T, center, curv, tilt, lo, hi float64) {
		checkSummary(t, shapedEstimator(center, curv, tilt, lo, hi),
			fmt.Sprintf("center %v curv %v tilt %v lo %v hi %v", center, curv, tilt, lo, hi))
	})
}

// TestSummaryMatchesRefSweep sweeps posterior shapes: parabolas of
// every grid-scale width around centres on and between grid points,
// tilted and spiked, tight parabolas whose grid ends sit at every depth
// where absorption starts, and the posteriors of random answer
// histories after every answer.
func TestSummaryMatchesRefSweep(t *testing.T) {
	for center := -4.5; center <= 4.5; center += 0.0625 {
		for curv := 0.25; curv <= 4096; curv *= 1.19 {
			for _, tilt := range []float64{0, 0.7, -3} {
				e := shapedEstimator(center, curv, tilt, 0, 0)
				checkSummary(t, e, fmt.Sprintf("center %v curv %v tilt %v", center, curv, tilt))
			}
			e := shapedEstimator(center, curv, 0, curv, -curv)
			checkSummary(t, e, fmt.Sprintf("center %v curv %v spiked", center, curv))
		}
	}
	// A tight posterior near 0 with one grid end dropped to d below
	// the maximum: the end's term is absorbed or not by each sum alone.
	for center := -0.5; center <= 0.5; center += 0.0625 {
		for _, curv := range []float64{12.5, 50, 200} {
			for d := 30.0; d <= 60; d += 0.05 {
				e := shapedEstimator(center, curv, 0, 0, 0)
				maxLP := slices.Max(e.logpost[:])
				e.logpost[0], e.logpost[gridN-1] = maxLP-d, maxLP-d
				checkSummary(t, e, fmt.Sprintf("center %v curv %v ends at d = -%v", center, curv, d))
			}
		}
	}
	s := rng.NewStream("summary-sweep")
	for seat := 0; seat < 40; seat++ {
		e := NewEstimator()
		skill := 8*s.Float64() - 4
		for i := 0; i < 600; i++ {
			p := ItemParams{Disc: 0.5 + 1.5*s.Float64(), Diff: 8*s.Float64() - 4}
			e.Observe(p, s.Float64() < p.Prob(skill))
			checkSummary(t, e, fmt.Sprintf("seat %d answer %d", seat, i))
		}
	}
}

// minSummarySkipShare is the floor TestSummarySkipShare holds the
// share of grid points whose exp the summary skips to. It reads 0.451
// on the bench bank.
const minSummarySkipShare = 0.40

// TestSummarySkipShare: over the five benchTournaments, at least
// minSummarySkipShare of the grid points the summary visits after an
// answer skip exp. A test that stays correct but stops absorbing tails
// fails this without any timing.
func TestSummarySkipShare(t *testing.T) {
	skips, points := 0, 0
	for _, trn := range benchTournaments(t) {
		skips += trn.expSkips
		points += trn.QuestionsAsked() * gridN
	}
	share := float64(skips) / float64(points)
	t.Logf("%d of %d summary grid points skipped exp: %.3f", skips, points, share)
	if share < minSummarySkipShare {
		t.Errorf("summary skipped exp for %.3f of its grid points, want at least %v", share, minSummarySkipShare)
	}
}

// FuzzFillLogLikRowsMatchesOracle: the paired fill writes, bit for bit,
// the rows of a wrong and a right answer that two fillLogLik calls
// write, at z = 0, past the ±35 clamp, where the exponent's product is
// NaN and at extreme discriminations.
func FuzzFillLogLikRowsMatchesOracle(f *testing.F) {
	f.Add(1.0, 0.0)           // z = 0 at θ = 0
	f.Add(1.5, 0.3)           // z = 0 at a grid point, z ≠ 0 elsewhere
	f.Add(0.5, 0.05)          // Diff between grid points
	f.Add(100.0, 0.0)         // clamped at ±35
	f.Add(math.Inf(1), 0.0)   // Inf·0 = NaN at θ = 0, ±Inf elsewhere
	f.Add(1.0, math.NaN())    // NaN everywhere
	f.Add(math.Inf(1), 1e300) // -Inf everywhere
	f.Add(-2.0, -3.9)         // negative disc
	f.Add(0.0, 1.0)           // zero disc
	f.Add(1e-170, 1.0)        // disc·(θ−Diff) underflows
	f.Add(1e-160, 0.0)        // subnormal products
	f.Add(1e154, 2.0)         // near the float maximum
	f.Add(1e160, -1.0)        // overflows to ±Inf
	f.Add(10.0, 0.5)          // |z| reaches 35 at θ = 4
	f.Fuzz(func(t *testing.T, disc, diff float64) {
		p := ItemParams{Disc: disc, Diff: diff}
		var rows, want [2][gridN]float64
		fillLogLikRows(&rows, p)
		fillLogLik(&want[0], p, false)
		fillLogLik(&want[1], p, true)
		for o := range rows {
			for k := range rows[o] {
				if math.Float64bits(rows[o][k]) != math.Float64bits(want[o][k]) {
					t.Fatalf("disc %v diff %v outcome %d theta %v: %v, oracle %v",
						disc, diff, o, gridTheta(k), rows[o][k], want[o][k])
				}
			}
		}
	})
}
