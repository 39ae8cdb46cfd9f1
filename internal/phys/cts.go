package phys

// HTree models a symmetric H-tree clock distribution network over a
// square die: levels alternate horizontal/vertical splits, and every
// root-to-leaf path has identical length, giving zero structural skew.
type HTree struct {
	Levels  int
	DieSize float64 // side length in um
}

// WireLength returns the total wirelength of the H-tree: each level
// halves the segment length in one dimension.
func (h HTree) WireLength() float64 {
	total := 0.0
	segLen := h.DieSize / 2
	segs := 1
	for l := 0; l < h.Levels; l++ {
		total += float64(segs) * segLen
		segs *= 2
		if l%2 == 1 {
			segLen /= 2
		}
	}
	return total
}

// ClockSkew returns the arrival-time difference between the earliest and
// latest sinks given per-sink wire delays.
func ClockSkew(arrivals []float64) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	lo, hi := arrivals[0], arrivals[0]
	for _, a := range arrivals[1:] {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	return hi - lo
}

// ElmoreDelay computes the Elmore delay of an RC ladder: resistances
// r[i] and downstream capacitances c[i] per segment:
// sum_i r_i * (sum_{j>=i} c_j).
func ElmoreDelay(r, c []float64) float64 {
	n := len(r)
	if len(c) < n {
		n = len(c)
	}
	total := 0.0
	for i := 0; i < n; i++ {
		down := 0.0
		for j := i; j < n; j++ {
			down += c[j]
		}
		total += r[i] * down
	}
	return total
}

// BufferedDelay models inserting k equally spaced buffers on a wire of
// total resistance R and capacitance C with per-buffer delay tb:
// delay = (k+1) * (R/(k+1))*(C/(k+1))*0.5 + k*tb (quadratic wire delay
// split into k+1 segments).
func BufferedDelay(r, c float64, k int, tb float64) float64 {
	n := float64(k + 1)
	return n*(r/n)*(c/n)*0.5 + float64(k)*tb
}

// OptimalBufferCount searches the buffer count minimising BufferedDelay.
func OptimalBufferCount(r, c, tb float64, maxK int) (int, float64) {
	bestK, bestD := 0, BufferedDelay(r, c, 0, tb)
	for k := 1; k <= maxK; k++ {
		if d := BufferedDelay(r, c, k, tb); d < bestD {
			bestK, bestD = k, d
		}
	}
	return bestK, bestD
}
