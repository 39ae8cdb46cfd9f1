package digital

import (
	"testing"
	"testing/quick"
)

func TestTwosComplementKnown(t *testing.T) {
	cases := []struct {
		value, bits, word int
	}{
		{-1, 8, 0xff},
		{-128, 8, 0x80},
		{127, 8, 0x7f},
		{0, 8, 0},
		{-76, 8, 0b10110100},
		{5, 4, 0b0101},
		{-3, 4, 0b1101},
	}
	for _, c := range cases {
		if back := FromTwosComplement(c.word, c.bits); back != c.value {
			t.Errorf("FromTwosComplement(%#b, %d) = %d, want %d", c.word, c.bits, back, c.value)
		}
	}
}

func TestQuickTwosComplementRoundTrip(t *testing.T) {
	// Property: decoding the low 8 bits of a value that fits gives it back.
	f := func(raw int16) bool {
		v := int(raw) % 128
		return FromTwosComplement(v&0xff, 8) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCarryOverflow(t *testing.T) {
	cases := []struct {
		a, b, bits int
		cin        bool
		sum        int
		carry, ovf bool
	}{
		{0b0111, 0b0001, 4, false, 0b1000, false, true},  // 7+1 signed overflow
		{0b1111, 0b0001, 4, false, 0b0000, true, false},  // -1+1 carry out, no overflow
		{0b1000, 0b1000, 4, false, 0b0000, true, true},   // -8 + -8 overflow
		{0b0011, 0b0010, 4, false, 0b0101, false, false}, // 3+2
		{0b0011, 0b0010, 4, true, 0b0110, false, false},  // 3+2+1
	}
	for _, c := range cases {
		r := Add(c.a, c.b, c.bits, c.cin)
		if r.Sum != c.sum || r.CarryOut != c.carry || r.Overflow != c.ovf {
			t.Errorf("Add(%04b,%04b,cin=%v) = {%04b %v %v}, want {%04b %v %v}",
				c.a, c.b, c.cin, r.Sum, r.CarryOut, r.Overflow, c.sum, c.carry, c.ovf)
		}
	}
}

func TestQuickAddMatchesSignedArithmetic(t *testing.T) {
	// Property: when no overflow is flagged, the signed interpretation
	// of the result equals the signed sum.
	f := func(ra, rb uint8) bool {
		const bits = 8
		r := Add(int(ra), int(rb), bits, false)
		sa := FromTwosComplement(int(ra), bits)
		sb := FromTwosComplement(int(rb), bits)
		if r.Overflow {
			return sa+sb > 127 || sa+sb < -128
		}
		return FromTwosComplement(r.Sum, bits) == sa+sb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFullAdderConsistency(t *testing.T) {
	// Property: chaining full adders bit by bit equals Add.
	f := func(ra, rb uint8) bool {
		const bits = 8
		carry := false
		sum := 0
		for i := 0; i < bits; i++ {
			a := int(ra)>>i&1 == 1
			b := int(rb)>>i&1 == 1
			var s bool
			s, carry = FullAdderOutputs(a, b, carry)
			if s {
				sum |= 1 << i
			}
		}
		r := Add(int(ra), int(rb), bits, false)
		return sum == r.Sum && carry == r.CarryOut
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitStringParse(t *testing.T) {
	if s := BitString(0b1011, 4); s != "1011" {
		t.Errorf("BitString = %q", s)
	}
}

func TestQuickGrayRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return GrayDecode(GrayEncode(int(v))) == int(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGrayAdjacency(t *testing.T) {
	// Property: consecutive Gray codes differ in exactly one bit.
	f := func(v uint8) bool {
		a, b := GrayEncode(int(v)), GrayEncode(int(v)+1)
		return popcount(a^b) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The helpers below check the live arithmetic from the other side (a
// bit-level adder, the Gray-code inverse); no question generator uses
// them.

// FullAdderOutputs returns (sum, carry) of a one-bit full adder.
func FullAdderOutputs(a, b, cin bool) (sum, carry bool) {
	sum = a != b != cin
	carry = a && b || cin && (a != b)
	return sum, carry
}

// GrayDecode converts Gray code back to binary.
func GrayDecode(g int) int {
	v := 0
	for g != 0 {
		v ^= g
		g >>= 1
	}
	return v
}
