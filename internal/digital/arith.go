package digital

// FromTwosComplement decodes an n-bit two's-complement word to a signed
// value.
func FromTwosComplement(word, bits int) int {
	word &= 1<<bits - 1
	if word&(1<<(bits-1)) != 0 {
		return word - 1<<bits
	}
	return word
}

// AddResult describes an n-bit addition: the truncated sum word, the
// carry out of the MSB, and signed (two's-complement) overflow.
type AddResult struct {
	Sum      int
	CarryOut bool
	Overflow bool
}

// Add performs n-bit binary addition of two words (given as unsigned bit
// patterns) plus a carry-in, with full carry/overflow reporting — the
// ripple-carry adder behaviour Digital Design questions probe.
func Add(a, b, bits int, carryIn bool) AddResult {
	mask := 1<<bits - 1
	a &= mask
	b &= mask
	cin := 0
	if carryIn {
		cin = 1
	}
	full := a + b + cin
	sum := full & mask
	carryOut := full>>bits != 0
	// Signed overflow: carry into MSB differs from carry out of MSB.
	sa := a&(1<<(bits-1)) != 0
	sb := b&(1<<(bits-1)) != 0
	ss := sum&(1<<(bits-1)) != 0
	overflow := sa == sb && ss != sa
	return AddResult{Sum: sum, CarryOut: carryOut, Overflow: overflow}
}

// BitString renders the low n bits of a word, MSB first.
func BitString(word, bits int) string {
	out := make([]byte, bits)
	for i := 0; i < bits; i++ {
		if word&(1<<(bits-1-i)) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// GrayEncode converts binary to Gray code.
func GrayEncode(v int) int { return v ^ v>>1 }
