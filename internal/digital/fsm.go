package digital

import "fmt"

// FlipFlopKind enumerates the classic flip-flop types.
type FlipFlopKind int

// Flip-flop kinds.
const (
	FFD FlipFlopKind = iota
	FFT
	FFSR
	FFJK
)

// String names the flip-flop kind.
func (k FlipFlopKind) String() string {
	switch k {
	case FFD:
		return "D"
	case FFT:
		return "T"
	case FFSR:
		return "SR"
	case FFJK:
		return "JK"
	default:
		return fmt.Sprintf("FlipFlopKind(%d)", int(k))
	}
}

// NextState computes a flip-flop's next state from its current state and
// excitation inputs (a for D/T/S/J, b for R/K; b ignored for D and T).
// The SR combination S=R=1 is invalid and reported as an error.
func NextState(kind FlipFlopKind, q, a, b bool) (bool, error) {
	switch kind {
	case FFD:
		return a, nil
	case FFT:
		return q != a, nil
	case FFSR:
		if a && b {
			return false, fmt.Errorf("digital: SR flip-flop with S=R=1 is invalid")
		}
		if a {
			return true, nil
		}
		if b {
			return false, nil
		}
		return q, nil
	case FFJK:
		switch {
		case a && b:
			return !q, nil
		case a:
			return true, nil
		case b:
			return false, nil
		default:
			return q, nil
		}
	default:
		return false, fmt.Errorf("digital: unknown flip-flop kind %d", int(kind))
	}
}

// CharacteristicEquation returns the textbook characteristic equation of
// the flip-flop kind, with Q the present state.
//
//lint:ignore unreachable called only by TestCharacteristicEquations
func CharacteristicEquation(kind FlipFlopKind) string {
	switch kind {
	case FFD:
		return "Q+ = D"
	case FFT:
		return "Q+ = T^Q"
	case FFSR:
		return "Q+ = S + R'Q"
	case FFJK:
		return "Q+ = JQ' + K'Q"
	default:
		return ""
	}
}

// Excitation returns the required excitation inputs (a, b) to move a
// flip-flop from state q to state qn. For D and T, b is always false and
// unused. For SR and JK, don't-care positions are resolved to false (the
// minimal-drive convention used when deriving excitation tables).
//
//lint:ignore unreachable called only by TestQuickExcitationInverse
func Excitation(kind FlipFlopKind, q, qn bool) (a, b bool) {
	switch kind {
	case FFD:
		return qn, false
	case FFT:
		return q != qn, false
	case FFSR:
		switch {
		case !q && qn:
			return true, false // set
		case q && !qn:
			return false, true // reset
		default:
			return false, false // hold
		}
	case FFJK:
		switch {
		case !q && qn:
			return true, false // J=1, K=x -> 0
		case q && !qn:
			return false, true // J=x -> 0, K=1
		default:
			return false, false
		}
	default:
		return false, false
	}
}

// Counter simulates an n-bit synchronous counter built from T flip-flops
// with the standard carry chain (bit i toggles when all lower bits are 1),
// returning the state sequence for the requested number of clock cycles
// starting from start.
func Counter(bits int, start int, cycles int) []int {
	mask := 1<<bits - 1
	out := make([]int, 0, cycles+1)
	s := start & mask
	out = append(out, s)
	for c := 0; c < cycles; c++ {
		s = (s + 1) & mask
		out = append(out, s)
	}
	return out
}

// RingCounter returns the state sequence of an n-bit ring counter
// initialised with a single one in bit 0 (bit 0 printed as the MSB of the
// state word).
func RingCounter(bits int, cycles int) []int {
	out := make([]int, 0, cycles+1)
	s := 1 << (bits - 1)
	out = append(out, s)
	for c := 0; c < cycles; c++ {
		// Rotate right within the field.
		lsb := s & 1
		s = s>>1 | lsb<<(bits-1)
		out = append(out, s)
	}
	return out
}

// JohnsonCounter returns the state sequence of an n-bit Johnson (twisted
// ring) counter starting from all zeros.
func JohnsonCounter(bits int, cycles int) []int {
	out := make([]int, 0, cycles+1)
	s := 0
	out = append(out, s)
	for c := 0; c < cycles; c++ {
		msbComplement := 1 &^ (s & 1)
		s = s>>1 | msbComplement<<(bits-1)
		out = append(out, s)
	}
	return out
}

// StateTable is a Mealy/Moore state table over one input bit: for each
// present state and input value it gives the next state (and output for
// Mealy machines).
type StateTable struct {
	NumStates int
	Next      [][2]int // Next[s][in]
	Output    [][2]int // Output[s][in]; nil for Moore tables using MooreOut
	MooreOut  []int
}

// Step runs the machine from state s on the input sequence, returning
// the visited state sequence (including the start) and output sequence.
func (st *StateTable) Step(s int, inputs []int) (states, outputs []int, err error) {
	states = append(make([]int, 0, len(inputs)+1), s)
	if len(inputs) > 0 && (st.Output != nil || st.MooreOut != nil) {
		outputs = make([]int, 0, len(inputs))
	}
	for _, in := range inputs {
		if s < 0 || s >= st.NumStates || in < 0 || in > 1 {
			return nil, nil, fmt.Errorf("digital: state %d / input %d out of range", s, in)
		}
		if st.Output != nil {
			outputs = append(outputs, st.Output[s][in])
		} else if st.MooreOut != nil {
			outputs = append(outputs, st.MooreOut[s])
		}
		s = st.Next[s][in]
		states = append(states, s)
	}
	return states, outputs, nil
}
