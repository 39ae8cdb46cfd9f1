package digital

import "fmt"

// ToTwosComplement encodes a signed value in an n-bit two's-complement
// word, reporting overflow when the value does not fit.
//
//lint:ignore unreachable called only by TestTwosComplementKnown, TestTwosComplementOverflow and TestQuickTwosComplementRoundTrip
func ToTwosComplement(value, bits int) (word int, err error) {
	min := -(1 << (bits - 1))
	max := 1<<(bits-1) - 1
	if value < min || value > max {
		return 0, fmt.Errorf("digital: %d does not fit in %d-bit two's complement", value, bits)
	}
	return value & (1<<bits - 1), nil
}

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

// Sub computes a-b in n bits via two's complement (a + ~b + 1).
//
//lint:ignore unreachable called only by TestSub
func Sub(a, b, bits int) AddResult {
	mask := 1<<bits - 1
	return Add(a, ^b&mask, bits, true)
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

// Parity returns the even-parity bit of the low n bits of word (1 when
// the count of ones is odd, making the total even).
//
//lint:ignore unreachable called only by TestParity
func Parity(word, bits int) int {
	p := 0
	for i := 0; i < bits; i++ {
		p ^= word >> i & 1
	}
	return p
}

// SignExtend widens an n-bit two's-complement word to m bits.
//
//lint:ignore unreachable called only by TestSignExtend
func SignExtend(word, fromBits, toBits int) int {
	return FromTwosComplement(word, fromBits) & (1<<toBits - 1)
}
