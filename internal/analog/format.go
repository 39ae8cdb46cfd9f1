package analog

import (
	"math"
	"slices"
	"strconv"
)

// FormatSI renders a value with an SI prefix and unit, e.g. 2200 Ohm ->
// "2.2 kOhm", 0.004 S -> "4 mS". Values render with up to three
// significant decimals, trimmed.
func FormatSI(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	prefixes := [...]struct {
		mult float64
		sym  string
	}{
		{1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1, ""},
		{1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
	}
	p := prefixes[len(prefixes)-1]
	av := math.Abs(v)
	for _, q := range prefixes {
		if av >= q.mult*0.9999 {
			p = q
			break
		}
	}
	var buf [48]byte
	b := append(appendTrimmed(buf[:0], v/p.mult), ' ')
	b = append(b, p.sym...)
	return string(append(b, unit...))
}

// FormatPlain renders a value without SI scaling.
func FormatPlain(v float64, unit string) string {
	var buf [48]byte
	b := appendTrimmed(buf[:0], v)
	if unit != "" {
		b = append(append(b, ' '), unit...)
	}
	return string(b)
}

// appendTrimmed appends v with three decimals, then trims trailing
// zeros and a dangling decimal point.
func appendTrimmed(dst []byte, v float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, v, 'f', 3, 64)
	for len(dst) > start && dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	if len(dst) > start && dst[len(dst)-1] == '.' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// NumericDistractors builds three plausible wrong numeric options near
// the golden value, formatted with the supplied renderer; the candidates
// are the classic unit/sign/factor slips students make.
func NumericDistractors(golden float64, format func(float64) string) [3]string {
	goldenStr := format(golden)
	cands := [...]float64{
		golden * 2, golden / 2, -golden, golden * 10, golden / 10,
		golden * 1.5, golden + 1, golden - 1, golden * 3,
	}
	var out [3]string
	i := 0
	for _, c := range cands {
		if i >= 3 {
			break
		}
		s := format(c)
		if s == goldenStr || slices.Contains(out[:i], s) {
			continue
		}
		out[i] = s
		i++
	}
	// Exhausted candidates with duplicates (tiny goldens): fall back to
	// offsets guaranteed distinct.
	for ; i < 3; i++ {
		out[i] = format(golden + float64(i+2))
	}
	return out
}
