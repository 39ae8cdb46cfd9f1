package manuf

import "math"

// This file models 1-D aerial-image formation — the optics behind the
// benchmark's OPC/RET questions. A binary mask pattern is blurred by the
// projection optics' point-spread function (Gaussian approximation with
// width set by lambda/NA), and the resist prints wherever the image
// intensity clears a threshold. The model reproduces the classic
// proximity effects: printed lines narrow as pitch shrinks toward the
// resolution limit, isolated and dense features print differently, and a
// mask bias (the simplest OPC) restores the target CD.

// AerialSimulator holds the optical configuration for 1-D image
// computation. Positions and sizes are in nanometres.
type AerialSimulator struct {
	System LithoSystem
	// Threshold is the resist's normalised intensity threshold in
	// (0, 1); 0.5 models a standard positive resist at nominal dose.
	Threshold float64
	// StepNM is the simulation grid pitch.
	StepNM float64
}

// NewAerialSimulator returns a simulator for the given optics with a
// 0.5 threshold and 1 nm grid.
func NewAerialSimulator(sys LithoSystem) *AerialSimulator {
	return &AerialSimulator{System: sys, Threshold: 0.5, StepNM: 1}
}

// psfSigma returns the Gaussian PSF width: the Airy-disk radius
// 0.61*lambda/NA mapped to an equivalent Gaussian sigma (~/2.2).
func (a *AerialSimulator) psfSigma() float64 {
	if a.System.NA == 0 {
		return math.Inf(1)
	}
	return 0.61 * a.System.WavelengthNM / a.System.NA / 2.2
}

// MaskFeature is one transparent opening of a 1-D bright-field... the
// model uses dark-field convention: features are the drawn (printing)
// lines, i.e. intensity ~1 inside a feature before blur.
type MaskFeature struct {
	CenterNM float64
	WidthNM  float64
}

// Intensity returns the normalised aerial-image intensity at position x
// for the mask features: each opening contributes the integral of the
// Gaussian PSF across its extent (an erf pair), and contributions add.
func (a *AerialSimulator) Intensity(features []MaskFeature, x float64) float64 {
	sigma := a.psfSigma()
	if math.IsInf(sigma, 1) {
		return 0
	}
	s := sigma * math.Sqrt2
	total := 0.0
	for _, f := range features {
		lo := f.CenterNM - f.WidthNM/2
		hi := f.CenterNM + f.WidthNM/2
		total += 0.5 * (math.Erf((x-lo)/s) - math.Erf((x-hi)/s))
	}
	if total < 0 {
		return 0
	}
	return total
}

// PrintedCD returns the printed linewidth of the feature nearest x0: the
// width of the contiguous region around x0 where intensity exceeds the
// resist threshold. Zero means the feature failed to print.
func (a *AerialSimulator) PrintedCD(features []MaskFeature, x0 float64) float64 {
	step := a.StepNM
	if step <= 0 {
		step = 1
	}
	if a.Intensity(features, x0) < a.Threshold {
		return 0
	}
	// Walk outward until the intensity drops below threshold.
	left := x0
	for a.Intensity(features, left-step) >= a.Threshold {
		left -= step
		if x0-left > 1e5 {
			break
		}
	}
	right := x0
	for a.Intensity(features, right+step) >= a.Threshold {
		right += step
		if right-x0 > 1e5 {
			break
		}
	}
	return right - left
}

// LineInGrating builds an n-line grating of the given CD and pitch
// centred at zero and returns the features plus the centre line's
// position.
func LineInGrating(cd, pitch float64, n int) ([]MaskFeature, float64) {
	if n < 1 {
		n = 1
	}
	features := make([]MaskFeature, n)
	mid := n / 2
	for i := range features {
		features[i] = MaskFeature{CenterNM: float64(i-mid) * pitch, WidthNM: cd}
	}
	return features, 0
}

// ProximityError returns printed-minus-drawn CD for the centre line of a
// grating: the dense-vs-iso proximity effect bias OPC corrects.
//
//lint:ignore unreachable kept for BenchmarkAerialOPC in bench_test.go
func (a *AerialSimulator) ProximityError(cd, pitch float64, lines int) float64 {
	features, x0 := LineInGrating(cd, pitch, lines)
	return a.PrintedCD(features, x0) - cd
}

// ApplyBiasOPC finds the mask bias (added symmetrically to every line's
// width) that makes the centre line print at the target CD, via
// bisection over [-cd/2, +cd]. ok is false when no bias in range
// achieves the target within the simulation grid (2 nm).
//
//lint:ignore unreachable kept for BenchmarkAerialOPC in bench_test.go
func (a *AerialSimulator) ApplyBiasOPC(cd, pitch float64, lines int) (bias float64, ok bool) {
	printAt := func(b float64) float64 {
		features, x0 := LineInGrating(cd+b, pitch, lines)
		return a.PrintedCD(features, x0)
	}
	lo, hi := -cd/2, cd
	// Printed CD grows monotonically with bias.
	if printAt(lo) > cd || printAt(hi) < cd {
		return 0, false
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if printAt(mid) < cd {
			lo = mid
		} else {
			hi = mid
		}
	}
	bias = (lo + hi) / 2
	got := printAt(bias)
	return bias, math.Abs(got-cd) <= 2
}
