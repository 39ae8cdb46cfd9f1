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
		w, err := ToTwosComplement(c.value, c.bits)
		if err != nil {
			t.Fatalf("ToTwosComplement(%d, %d): %v", c.value, c.bits, err)
		}
		if w != c.word {
			t.Errorf("ToTwosComplement(%d, %d) = %#b, want %#b", c.value, c.bits, w, c.word)
		}
		if back := FromTwosComplement(c.word, c.bits); back != c.value {
			t.Errorf("FromTwosComplement(%#b, %d) = %d, want %d", c.word, c.bits, back, c.value)
		}
	}
}

func TestTwosComplementOverflow(t *testing.T) {
	if _, err := ToTwosComplement(128, 8); err == nil {
		t.Error("128 must not fit in 8-bit two's complement")
	}
	if _, err := ToTwosComplement(-129, 8); err == nil {
		t.Error("-129 must not fit in 8-bit two's complement")
	}
}

func TestQuickTwosComplementRoundTrip(t *testing.T) {
	f := func(raw int16) bool {
		v := int(raw) % 128
		w, err := ToTwosComplement(v, 8)
		if err != nil {
			return false
		}
		return FromTwosComplement(w, 8) == v
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

func TestSub(t *testing.T) {
	r := Sub(0b0101, 0b0011, 4) // 5-3
	if r.Sum != 0b0010 {
		t.Errorf("5-3 = %04b", r.Sum)
	}
	r = Sub(0b0011, 0b0101, 4) // 3-5 = -2
	if FromTwosComplement(r.Sum, 4) != -2 {
		t.Errorf("3-5 = %d", FromTwosComplement(r.Sum, 4))
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

func TestParity(t *testing.T) {
	if Parity(0b1011, 4) != 1 {
		t.Error("parity of 1011 should be 1 (odd ones)")
	}
	if Parity(0b1001, 4) != 0 {
		t.Error("parity of 1001 should be 0 (even ones)")
	}
}

func TestSignExtend(t *testing.T) {
	// -3 in 4 bits extended to 8 bits.
	got := SignExtend(0b1101, 4, 8)
	if FromTwosComplement(got, 8) != -3 {
		t.Errorf("SignExtend = %08b (%d)", got, FromTwosComplement(got, 8))
	}
	// Positive values extend with zeros.
	if got := SignExtend(0b0101, 4, 8); got != 0b0101 {
		t.Errorf("SignExtend positive = %08b", got)
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
