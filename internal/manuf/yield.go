package manuf

import "math"

// PoissonYield returns the die yield under the Poisson model:
// Y = exp(-A*D) with die area A (cm^2) and defect density D (1/cm^2).
func PoissonYield(areaCM2, defectDensity float64) float64 {
	return math.Exp(-areaCM2 * defectDensity)
}

// GrossDiePerWafer estimates the die count on a circular wafer with the
// standard edge-corrected formula:
// N = pi*(d/2)^2/A - pi*d/sqrt(2*A), with wafer diameter d (mm) and die
// area A (mm^2).
func GrossDiePerWafer(waferDiameterMM, dieAreaMM2 float64) int {
	if dieAreaMM2 <= 0 {
		return 0
	}
	r := waferDiameterMM / 2
	n := math.Pi*r*r/dieAreaMM2 - math.Pi*waferDiameterMM/math.Sqrt(2*dieAreaMM2)
	if n < 0 {
		return 0
	}
	return int(n)
}

// GoodDiePerWafer multiplies the gross count by the yield model result.
func GoodDiePerWafer(waferDiameterMM, dieAreaMM2, defectDensityPerCM2 float64) int {
	gross := GrossDiePerWafer(waferDiameterMM, dieAreaMM2)
	areaCM2 := dieAreaMM2 / 100
	return int(float64(gross) * PoissonYield(areaCM2, defectDensityPerCM2))
}

// DefectClass enumerates wafer-map defect signatures.
type DefectClass int

// Common wafer-map defect classes.
const (
	DefectRandom DefectClass = iota
	DefectCluster
	DefectScratch
	DefectEdgeRing
	DefectCenter
)

// String names the class.
func (d DefectClass) String() string {
	switch d {
	case DefectRandom:
		return "random particles"
	case DefectCluster:
		return "cluster defect"
	case DefectScratch:
		return "scratch"
	case DefectEdgeRing:
		return "edge ring"
	case DefectCenter:
		return "center spot"
	default:
		return "unknown"
	}
}

// ClassifyWaferMap applies simple geometric rules to a failing-die
// coordinate list (wafer radius normalised to 1): line-fit residual
// detects scratches, mean radius detects edge rings and center spots,
// dispersion detects clusters, else random.
func ClassifyWaferMap(fails [][2]float64) DefectClass {
	n := len(fails)
	if n == 0 {
		return DefectRandom
	}
	var meanR, mx, my float64
	for _, f := range fails {
		meanR += math.Hypot(f[0], f[1])
		mx += f[0]
		my += f[1]
	}
	meanR /= float64(n)
	mx /= float64(n)
	my /= float64(n)
	// Spread around the centroid.
	var spread float64
	for _, f := range fails {
		spread += math.Hypot(f[0]-mx, f[1]-my)
	}
	spread /= float64(n)
	if lineResidual(fails) < 0.05 && n >= 4 && spread > 0.2 {
		return DefectScratch
	}
	switch {
	case meanR > 0.8:
		return DefectEdgeRing
	case meanR < 0.25:
		return DefectCenter
	case spread < 0.2:
		return DefectCluster
	default:
		return DefectRandom
	}
}

// lineResidual returns the RMS perpendicular distance of the points to
// their best-fit line (total least squares via 2x2 eigen decomposition).
func lineResidual(pts [][2]float64) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 1
	}
	var mx, my float64
	for _, p := range pts {
		mx += p[0]
		my += p[1]
	}
	mx /= n
	my /= n
	var sxx, sxy, syy float64
	for _, p := range pts {
		dx, dy := p[0]-mx, p[1]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	// Smaller eigenvalue of the covariance = variance normal to line.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	lambda := (tr - math.Sqrt(tr*tr-4*det)) / 2
	if lambda < 0 {
		lambda = 0
	}
	return math.Sqrt(lambda / n)
}
