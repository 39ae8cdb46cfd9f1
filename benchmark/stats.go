package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer, and one slow sample moves the value.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into quarters,
// computed like Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so spreads printed here match the ones a Python reader of
// the same result lines computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", n)
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(float64(n)*p - 1e-9))
	return n - max(rank, 1)
}

// percentile returns the nearest-rank p-th percentile (p in (0, 1)) of
// xs. It refuses a percentile with fewer than minBeyond samples above
// it: that tail is one or two samples, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	if b := beyond(len(xs), p); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(xs), b, minBeyond)
	}
	s := sorted(xs)
	return s[int(math.Ceil(float64(len(s))*p-1e-9))-1], nil
}

// tailPercentiles are the percentiles the benchmark may fall back to
// for a tail, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.9, 0.5}

// tail is the p-th percentile of xs or, when xs has too few samples for
// it, the highest lower tail percentile they support, or their maximum
// when they support none; 0 when xs is empty.
func tail(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	for _, q := range append([]float64{p}, tailPercentiles...) {
		if q > p {
			continue
		}
		if v, err := percentile(xs, q); err == nil {
			return v
		}
	}
	return slices.Max(xs)
}

// outcome is one attempted operation: its latency, and whether it
// succeeded.
type outcome struct {
	ms float64
	ok bool
}

// latencies returns the outcomes' latencies with every failed or
// refused operation counted as infinitely slow, so a failure misses
// every latency limit instead of vanishing from the percentile.
func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = o.ms
		if !o.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// failures counts the outcomes that did not succeed.
func failures(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if !o.ok {
			n++
		}
	}
	return n
}

// step is one fixed arrival rate of an open-loop ladder.
type step struct {
	rate     float64 // offered arrivals per second
	p95ms    float64 // p95 latency, failures counted as infinite
	failed   int     // failed or refused operations
	backlogS float64 // last response minus last arrival, in seconds
}

// Ladder limits: a step is sustained when its p95 latency stays within
// ladderP95ms, nothing fails, and the last response lands within
// ladderBacklogS of the last arrival (no growing queue).
const (
	ladderP95ms    = 50
	ladderBacklogS = 1
)

func (s step) sustained() bool {
	return s.p95ms <= ladderP95ms && s.failed == 0 && s.backlogS <= ladderBacklogS
}

// maxRate climbs the ladder in ascending rate order and returns the
// highest rate sustained before the first step that is not; 0 when the
// lowest step already fails. A step above a failed one does not count:
// its pass would rest on the drained queue of the step below.
func maxRate(steps []step) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.sustained() {
			break
		}
		best = s.rate
	}
	return best
}
