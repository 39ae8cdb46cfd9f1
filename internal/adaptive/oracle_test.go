package adaptive

import "math"

// fillLogLik writes the log-likelihood of one outcome on item p at
// every grid point, one logSigmoid per point: the oracle
// fillLogLikRows' paired fill must match bit for bit.
func fillLogLik(row *[gridN]float64, p ItemParams, correct bool) {
	for k := range row {
		z := clampZ(p.Disc * (gridTheta(k) - p.Diff))
		if correct {
			row[k] = logSigmoid(z)
		} else {
			row[k] = logSigmoid(-z)
		}
	}
}

// logSigmoid is log(1/(1+exp(-z))), computed without overflow on
// either tail.
func logSigmoid(z float64) float64 {
	if z >= 0 {
		return -math.Log1p(math.Exp(-z))
	}
	return z - math.Log1p(math.Exp(z))
}

// summaryRef is the posterior summary with one exp per grid point,
// kept as the oracle for summary's absorbed tails.
func (e *Estimator) summaryRef() (ability, se float64) {
	maxLP := e.logpost[0]
	for _, lp := range e.logpost[1:] {
		if lp > maxLP {
			maxLP = lp
		}
	}
	var wSum, mSum, m2Sum float64
	for k := range e.logpost {
		w := math.Exp(e.logpost[k] - maxLP)
		th := gridTheta(k)
		wSum += w
		mSum += w * th
		m2Sum += w * th * th
	}
	ability = mSum / wSum
	variance := m2Sum/wSum - ability*ability
	if variance < 0 {
		variance = 0
	}
	return ability, math.Sqrt(variance)
}
