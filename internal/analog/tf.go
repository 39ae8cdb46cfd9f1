package analog

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Poly is a real polynomial in s; Coeffs[i] multiplies s^i.
type Poly []float64

// Eval evaluates the polynomial at a complex point.
func (p Poly) Eval(s complex128) complex128 {
	var acc complex128
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc*s + complex(p[i], 0)
	}
	return acc
}

// Degree returns the polynomial degree ignoring trailing zero
// coefficients.
func (p Poly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return 0
}

// Roots finds all complex roots with the Durand–Kerner iteration,
// adequate for the low-order transfer functions the benchmark uses.
//
//lint:ignore unreachable called only by TestRootsKnown, TestRootsComplexPair and TestQuickRootsSatisfyPolynomial
func (p Poly) Roots() []complex128 {
	deg := p.Degree()
	if deg == 0 {
		return nil
	}
	// Normalise.
	c := make([]complex128, deg+1)
	lead := complex(p[deg], 0)
	for i := 0; i <= deg; i++ {
		c[i] = complex(p[i], 0) / lead
	}
	f := func(s complex128) complex128 {
		var acc complex128
		for i := deg; i >= 0; i-- {
			acc = acc*s + c[i]
		}
		return acc
	}
	roots := make([]complex128, deg)
	seed := complex(0.4, 0.9)
	cur := complex(1, 0)
	for i := range roots {
		cur *= seed
		roots[i] = cur
	}
	for iter := 0; iter < 500; iter++ {
		var maxStep float64
		for i := range roots {
			denom := complex(1, 0)
			for j := range roots {
				if i != j {
					denom *= roots[i] - roots[j]
				}
			}
			if denom == 0 {
				denom = complex(1e-12, 0)
			}
			step := f(roots[i]) / denom
			roots[i] -= step
			if m := cmplx.Abs(step); m > maxStep {
				maxStep = m
			}
		}
		if maxStep < 1e-12 {
			break
		}
	}
	return roots
}

// TransferFunction is a rational function H(s) = Num(s)/Den(s).
type TransferFunction struct {
	Num Poly
	Den Poly
}

// Eval evaluates H at a complex frequency.
func (h TransferFunction) Eval(s complex128) complex128 {
	return h.Num.Eval(s) / h.Den.Eval(s)
}

// AtOmega evaluates H at s = j*omega.
func (h TransferFunction) AtOmega(omega float64) complex128 {
	return h.Eval(complex(0, omega))
}

// DCGain returns H(0).
func (h TransferFunction) DCGain() float64 {
	if h.Den[0] == 0 {
		return math.Inf(1)
	}
	return h.Num[0] / h.Den[0]
}

// MagnitudeDB returns 20*log10 |H(j omega)|.
func (h TransferFunction) MagnitudeDB(omega float64) float64 {
	return 20 * math.Log10(cmplx.Abs(h.AtOmega(omega)))
}

// PhaseDeg returns the phase of H(j omega) in degrees, unwrapped into
// (-360, 0] for the lag-dominated functions the benchmark draws.
func (h TransferFunction) PhaseDeg(omega float64) float64 {
	ph := cmplx.Phase(h.AtOmega(omega)) * 180 / math.Pi
	for ph > 0 {
		ph -= 360
	}
	return ph
}

// UnityGainOmega finds the angular frequency where |H| crosses 1, by
// bisection over a log sweep; returns 0 if no crossing exists in
// [1, 1e12] rad/s.
func (h TransferFunction) UnityGainOmega() float64 {
	lo, hi := 1.0, 1e12
	f := func(w float64) float64 { return cmplx.Abs(h.AtOmega(w)) - 1 }
	if f(lo) < 0 {
		return 0 // already below unity
	}
	if f(hi) > 0 {
		return 0 // never crosses
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// PhaseMarginDeg returns 180 + phase at the unity-gain frequency, the
// stability margin questions read off Bode plots.
func (h TransferFunction) PhaseMarginDeg() float64 {
	w := h.UnityGainOmega()
	if w == 0 {
		return math.NaN()
	}
	return 180 + h.PhaseDeg(w)
}

// CutoffOmega returns the -3 dB angular frequency relative to the DC
// gain; 0 if none found in [1e-3, 1e12].
func (h TransferFunction) CutoffOmega() float64 {
	dc := math.Abs(h.DCGain())
	if dc == 0 || math.IsInf(dc, 0) {
		return 0
	}
	target := dc / math.Sqrt2
	lo, hi := 1e-3, 1e12
	f := func(w float64) float64 { return cmplx.Abs(h.AtOmega(w)) - target }
	if f(lo) < 0 || f(hi) > 0 {
		return 0
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// SinglePole builds H(s) = gain / (1 + s/omegaP).
func SinglePole(gain, omegaP float64) TransferFunction {
	return TransferFunction{Num: Poly{gain}, Den: Poly{1, 1 / omegaP}}
}

// TwoPole builds H(s) = gain / ((1 + s/w1)(1 + s/w2)).
func TwoPole(gain, w1, w2 float64) TransferFunction {
	return TransferFunction{
		Num: Poly{gain},
		Den: Poly{1, 1/w1 + 1/w2, 1 / (w1 * w2)},
	}
}

// BodePoint is one sample of a Bode plot.
type BodePoint struct {
	Omega float64
	MagDB float64
	Phase float64
}

// BodeSweep samples the transfer function logarithmically from wLo to
// wHi with points per decade.
func (h TransferFunction) BodeSweep(wLo, wHi float64, perDecade int) []BodePoint {
	if perDecade < 1 {
		perDecade = 10
	}
	var out []BodePoint
	decades := math.Log10(wHi / wLo)
	n := int(decades*float64(perDecade)) + 1
	for i := 0; i <= n; i++ {
		w := wLo * math.Pow(10, float64(i)/float64(perDecade))
		if w > wHi*1.0001 {
			break
		}
		out = append(out, BodePoint{Omega: w, MagDB: h.MagnitudeDB(w), Phase: h.PhaseDeg(w)})
	}
	return out
}

// String renders H(s) in a readable form.
func (h TransferFunction) String() string {
	return fmt.Sprintf("(%s)/(%s)", h.Num.String(), h.Den.String())
}

// String renders the polynomial in ascending powers of s.
func (p Poly) String() string {
	var parts []string
	for i, c := range p {
		if c == 0 {
			continue
		}
		switch i {
		case 0:
			parts = append(parts, fmt.Sprintf("%g", c))
		case 1:
			parts = append(parts, fmt.Sprintf("%gs", c))
		default:
			parts = append(parts, fmt.Sprintf("%gs^%d", c, i))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}
