package arch

// TwoBitPredictor uses saturating 2-bit counters (0,1 predict not taken;
// 2,3 predict taken), initialised weakly not-taken.
type TwoBitPredictor struct {
	table []uint8
}

// NewTwoBit returns a 2-bit predictor with 2^bits entries.
func NewTwoBit(bits int) *TwoBitPredictor {
	t := &TwoBitPredictor{table: make([]uint8, 1<<bits)}
	for i := range t.table {
		t.table[i] = 1 // weakly not-taken
	}
	return t
}

// Predict returns the predicted direction for a branch at pc.
func (p *TwoBitPredictor) Predict(pc uint64) bool {
	return p.table[pc%uint64(len(p.table))] >= 2
}

// Update trains the predictor with the actual outcome.
func (p *TwoBitPredictor) Update(pc uint64, taken bool) {
	i := pc % uint64(len(p.table))
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
}

// RunPredictor feeds an outcome stream for a single branch pc and
// returns the misprediction count.
func RunPredictor(p *TwoBitPredictor, pc uint64, outcomes []bool) int {
	miss := 0
	for _, taken := range outcomes {
		if p.Predict(pc) != taken {
			miss++
		}
		p.Update(pc, taken)
	}
	return miss
}

// LoopOutcomes builds the outcome stream of a loop branch that is taken
// iters-1 times then falls through, repeated reps times.
func LoopOutcomes(iters, reps int) []bool {
	var out []bool
	for r := 0; r < reps; r++ {
		for i := 0; i < iters-1; i++ {
			out = append(out, true)
		}
		out = append(out, false)
	}
	return out
}
