// Package adaptive is the IRT-style adaptive evaluation harness
// (ROADMAP item 5): instead of marching every model through every
// question, it maintains a 2PL item-response ability estimate per
// model, always asks the question carrying the most Fisher information
// about that estimate, and freezes a model's run as soon as its
// ranking is settled — reproducing the full-grid Table II ordering
// with a fraction of the questions.
//
// Everything here is deterministic bit-for-bit given (models, item
// bank, Config.Seed): item selection is keyed by question identity
// (never position) through internal/rng, the ability update is pure
// float arithmetic over a fixed quadrature grid, and the tournament
// consumes judged outcomes strictly in the pipeline's canonical Seq
// order (see eval.ItemScheduler), so worker count cannot influence a
// single decision. DESIGN.md §15 documents the math and the
// determinism argument.
package adaptive

import (
	"math"

	"repro/internal/eval"
)

// ItemParams are one question's 2PL item-response parameters: the
// probability a model of ability theta answers correctly is
//
//	P(theta) = 1 / (1 + exp(-Disc * (theta - Diff)))
//
// Diff is on the ability scale (positive = hard), Disc scales how
// sharply the item separates abilities around Diff.
type ItemParams struct {
	QuestionID string
	Disc       float64 // a: discrimination, > 0
	Diff       float64 // b: difficulty location
}

// Prob is the 2PL response probability at ability theta.
func (p ItemParams) Prob(theta float64) float64 {
	return sigmoid(clampZ(p.Disc * (theta - p.Diff)))
}

// Information is the Fisher information the item carries at theta:
// a^2 * P * (1-P). Item selection maximises this.
func (p ItemParams) Information(theta float64) float64 {
	pr := p.Prob(theta)
	return p.Disc * p.Disc * pr * (1 - pr)
}

// Calibrate seeds 2PL parameters from the classical item analysis of a
// reference full-grid run (eval.ItemAnalysis): the solved-fraction
// difficulty maps to the logit location b = ln((1-p)/p), and the
// point-biserial discrimination maps affinely into a slope in
// [0.5, 2.0] (negative point-biserials — items anti-correlated with
// ability — are floored rather than inverted, so they carry little
// information and are simply asked late). Both maps are pure and
// clamped, so degenerate items (solved by nobody or everybody) stay
// finite and the bank is reproducible from the reference reports alone.
func Calibrate(items []eval.ItemStats) []ItemParams {
	out := make([]ItemParams, len(items))
	for i, it := range items {
		p := it.Difficulty
		if math.IsNaN(p) {
			p = 0.5
		}
		p = clamp(p, 0.02, 0.98)
		r := it.Discrimination
		if math.IsNaN(r) || r < 0 {
			r = 0
		}
		if r > 1 {
			r = 1
		}
		out[i] = ItemParams{
			QuestionID: it.QuestionID,
			Disc:       0.5 + 1.5*r,
			Diff:       math.Log((1 - p) / p),
		}
	}
	return out
}

// The ability posterior lives on a fixed quadrature grid: 81 points on
// [-4, +4], matching the reach of Calibrate's clamped logit (±3.9).
// A fixed grid makes the estimator's arithmetic a deterministic
// function of the observation sequence — no iterative solver, no
// convergence tolerance, no dependence on starting points — and the
// standard-normal prior keeps the posterior proper on degenerate
// all-correct / all-wrong histories where a maximum-likelihood ability
// would run off to ±infinity.
const (
	gridLo = -4.0
	gridHi = 4.0
	gridN  = 81
)

func gridTheta(k int) float64 {
	return gridLo + (gridHi-gridLo)*float64(k)/float64(gridN-1)
}

// Estimator tracks one model's ability posterior under the 2PL model
// with a standard-normal prior (expected-a-posteriori estimation).
// observeRow refreshes the posterior summary once per outcome and keeps
// it, so Estimate is O(1): callers may read it as often as they like
// (the tournament's separation test reads every seat's on every
// recorded outcome) at no exp cost. The zero value is not ready;
// setPrior readies it.
type Estimator struct {
	logpost     [gridN]float64
	ability, se float64 // summary of logpost
}

// setPrior puts the N(0,1) prior and its summary into a zero-valued e.
func (e *Estimator) setPrior() {
	for k := range e.logpost {
		th := gridTheta(k)
		e.logpost[k] = -0.5 * th * th
	}
	e.ability, e.se = e.summary()
}

// observeRow folds one outcome's log-likelihood row (see fillLogLik)
// into the posterior and refreshes the summary. Callers that see the
// same (item parameters, outcome) many times fill the row once and
// reuse it: the posterior is bit-identical to filling a fresh row for
// each outcome.
func (e *Estimator) observeRow(row *[gridN]float64) {
	for k := range e.logpost {
		e.logpost[k] += row[k]
	}
	e.ability, e.se = e.summary()
}

// fillLogLik writes the log-likelihood of one outcome on item p at
// every grid point: the single definition of the posterior update.
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

// Estimate returns the posterior mean ability and its posterior
// standard deviation as of the last observation, in O(1). Both are always
// finite: the prior bounds the posterior to the grid, and weights are
// renormalised against the maximum log-posterior before
// exponentiation.
func (e *Estimator) Estimate() (ability, se float64) { return e.ability, e.se }

// summary computes the posterior mean and standard deviation from
// logpost: 81 exp calls, paid once per observation.
func (e *Estimator) summary() (ability, se float64) {
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

// RankAgreement is the Kendall-style agreement between a reference
// score vector and a candidate score vector over the same entries
// (higher = better in both): across every pair the reference orders
// strictly, +1 for a concordant candidate pair, -1 for a discordant
// one, 0 for a candidate tie, averaged. 1.0 means the candidate
// reproduces every strict reference ordering — the
// adaptive_rank_agreement bench metric and the Kendall τ = 1.0
// acceptance gate. Pairs the reference itself ties carry no signal and
// are excluded; with no strict reference pairs at all the agreement is
// vacuously 1.
func RankAgreement(ref, got []float64) float64 {
	if len(ref) != len(got) {
		return math.NaN()
	}
	pairs, score := 0, 0
	for i := 0; i < len(ref); i++ {
		for j := i + 1; j < len(ref); j++ {
			if ref[i] == ref[j] {
				continue
			}
			pairs++
			refGT := ref[i] > ref[j]
			switch {
			case got[i] == got[j]:
			case (got[i] > got[j]) == refGT:
				score++
			default:
				score--
			}
		}
	}
	if pairs == 0 {
		return 1
	}
	return float64(score) / float64(pairs)
}

// clampZ bounds a logistic exponent so exp stays finite and a single
// observation can never drive a grid point's posterior to exactly
// -infinity (NaN/∞ item parameters degrade to a saturated but finite
// likelihood).
func clampZ(z float64) float64 {
	switch {
	case math.IsNaN(z):
		return 0
	case z > 35:
		return 35
	case z < -35:
		return -35
	}
	return z
}

// logSigmoid is log(1/(1+exp(-z))), computed without overflow on
// either tail.
func logSigmoid(z float64) float64 {
	if z >= 0 {
		return -math.Log1p(math.Exp(-z))
	}
	return z - math.Log1p(math.Exp(z))
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	}
	return x
}
