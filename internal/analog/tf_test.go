package analog

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolyEval(t *testing.T) {
	// p(s) = 1 + 2s + 3s^2 at s=2: 1+4+12 = 17.
	p := Poly{1, 2, 3}
	if got := p.Eval(2); got != 17 {
		t.Errorf("Eval = %v", got)
	}
	if p.Degree() != 2 {
		t.Errorf("Degree = %d", p.Degree())
	}
	if (Poly{5, 0, 0}).Degree() != 0 {
		t.Error("trailing zeros not ignored")
	}
}

func TestRootsKnown(t *testing.T) {
	// (s+1)(s+2) = 2 + 3s + s^2.
	roots := Poly{2, 3, 1}.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots %v", roots)
	}
	found := map[int]bool{}
	for _, r := range roots {
		switch {
		case cmplx.Abs(r-complex(-1, 0)) < 1e-6:
			found[1] = true
		case cmplx.Abs(r-complex(-2, 0)) < 1e-6:
			found[2] = true
		}
	}
	if !found[1] || !found[2] {
		t.Errorf("roots %v, want -1 and -2", roots)
	}
}

func TestRootsComplexPair(t *testing.T) {
	// s^2 + 1: roots ±j.
	roots := Poly{1, 0, 1}.Roots()
	for _, r := range roots {
		if math.Abs(cmplx.Abs(r)-1) > 1e-6 || math.Abs(real(r)) > 1e-6 {
			t.Errorf("root %v, want ±j", r)
		}
	}
}

func TestQuickRootsSatisfyPolynomial(t *testing.T) {
	// Property: every reported root evaluates the polynomial to ~0, for
	// random monic cubics with moderate coefficients.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Poly{r.Float64()*4 - 2, r.Float64()*4 - 2, r.Float64()*4 - 2, 1}
		for _, root := range p.Roots() {
			if cmplx.Abs(p.Eval(root)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSinglePoleProperties(t *testing.T) {
	h := SinglePole(100, 1e4)
	if dc := h.DCGain(); math.Abs(dc-100) > 1e-9 {
		t.Errorf("DC gain %v", dc)
	}
	// -3 dB at the pole.
	if db := h.MagnitudeDB(1e4) - h.MagnitudeDB(1); math.Abs(db+3.01) > 0.05 {
		t.Errorf("relative gain at pole %v dB, want -3.01", db)
	}
	// Cutoff finder agrees with the pole.
	if wc := h.CutoffOmega(); math.Abs(wc-1e4) > 50 {
		t.Errorf("cutoff %v, want 1e4", wc)
	}
	// Unity gain at A0*wp for a single pole (well above the pole).
	if wu := h.UnityGainOmega(); math.Abs(wu-1e6)/1e6 > 0.01 {
		t.Errorf("unity gain %v, want ~1e6", wu)
	}
	// Phase: -45 degrees at the pole.
	if ph := h.PhaseDeg(1e4); math.Abs(ph+45) > 0.5 {
		t.Errorf("phase at pole %v, want -45", ph)
	}
}

func TestTwoPolePhaseMargin(t *testing.T) {
	// Widely split poles with crossover at the second pole: PM ~ 52 deg.
	h := TwoPole(1000, 1e3, 1e6)
	pm := h.PhaseMarginDeg()
	if pm < 45 || pm > 60 {
		t.Errorf("phase margin %v, want ~52", pm)
	}
	// Single pole has ~90 degrees of margin.
	pm1 := SinglePole(1000, 1e3).PhaseMarginDeg()
	if math.Abs(pm1-90) > 1 {
		t.Errorf("single-pole margin %v, want ~90", pm1)
	}
}

func TestQuickMagnitudeMonotoneSinglePole(t *testing.T) {
	// Property: a single-pole low-pass magnitude is non-increasing in
	// frequency.
	h := SinglePole(50, 1e5)
	f := func(aRaw, bRaw uint16) bool {
		a := 1 + float64(aRaw)
		b := a + 1 + float64(bRaw)
		return h.MagnitudeDB(b) <= h.MagnitudeDB(a)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBodeSweep(t *testing.T) {
	h := SinglePole(10, 1e3)
	pts := h.BodeSweep(1e1, 1e5, 10)
	if len(pts) < 30 {
		t.Fatalf("sweep too short: %d points", len(pts))
	}
	if pts[0].Omega != 1e1 {
		t.Errorf("sweep start %v", pts[0].Omega)
	}
	// Magnitude decreases across the sweep.
	if pts[len(pts)-1].MagDB >= pts[0].MagDB {
		t.Error("sweep magnitude did not fall")
	}
}

func TestNoUnityCrossing(t *testing.T) {
	// A below-unity amplifier never crosses 1.
	h := SinglePole(0.5, 1e3)
	if wu := h.UnityGainOmega(); wu != 0 {
		t.Errorf("unity crossing %v for sub-unity gain, want 0", wu)
	}
	if !math.IsNaN(h.PhaseMarginDeg()) {
		t.Error("phase margin should be NaN without a crossing")
	}
}

func TestPolyString(t *testing.T) {
	if s := (Poly{1, 0, 2}).String(); s != "1 + 2s^2" {
		t.Errorf("String = %q", s)
	}
	if s := (Poly{0}).String(); s != "0" {
		t.Errorf("String = %q", s)
	}
	if s := (Poly{0, 3}).String(); s != "3s" {
		t.Errorf("String = %q", s)
	}
}
