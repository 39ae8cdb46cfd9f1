// Package eval implements the hybrid evaluation harness of §IV: answer
// normalisation, an equivalence judge standing in for the paper's
// GPT-4-based auto-evaluation (rule-based and therefore exactly
// reproducible), Pass@1 metrics per discipline, and the evaluation
// runner that produces the rows of Tables II and III.
package eval

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases, trims and collapses whitespace and strips
// surrounding punctuation — the canonical form short answers are
// compared in. Already-canonical input is returned unchanged without
// allocating, the common case for golden answers normalised at build
// time and for re-normalising a previous Normalize result.
//
//hot:normalize per-event judge path (DESIGN.md §12); canonical inputs must not allocate
//lint:ignore unreachable kept for BenchmarkNormalizeCanonical in bench_test.go
func Normalize(s string) string {
	if isNormalized(s) {
		return s
	}
	return string(appendNormalized(nil, s))
}

// isNormalized reports whether Normalize(s) == s, using a conservative
// single-pass ASCII check: any non-ASCII byte sends the string to the
// slow path (Unicode lowering and space folding can change bytes in
// ways a scan without allocation cannot cheaply rule out).
//
//hot:normalize fast-path gate for Normalize
func isNormalized(s string) bool {
	if len(s) == 0 {
		return true
	}
	if s[0] == ' ' || s[len(s)-1] == ' ' {
		return false
	}
	prevSpace := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch normClass[c] {
		case classKeep:
			prevSpace = false
		case classSpace:
			if c != ' ' || prevSpace {
				return false
			}
			prevSpace = true
		default:
			return false
		}
	}
	return true
}

// Byte classes of the normaliser. Every byte of a canonical form is
// classKeep, or a single ' ' between two of them.
const (
	classKeep  = iota // copied as is
	classUpper        // A-Z, copied lowered
	classSpace        // ASCII whitespace, collapsed into one ' '
	classDrop         // sentence punctuation, dropped without ending a space run
	classRune         // first byte of a multi-byte rune: the rune loop's job
)

// normClass maps every byte to its class, so the kernel in
// appendNormalized does one load and one switch per byte.
var normClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classRune
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = classUpper
	}
	for _, c := range " \t\n\v\f\r" {
		t[c] = classSpace
	}
	for _, c := range ".,!\"" { // keep signs, parens, units
		t[c] = classDrop
	}
	return t
}()

// appendNormalized appends the canonical form of s to dst and returns
// the extended slice — the allocation-free core behind Normalize and
// the judge's Scratch buffers. The transform matches the historical
// Builder loop byte for byte: lowercase, collapse runs of Unicode
// whitespace to one ' ', drop `.` `,` `!` `"` (without interrupting a
// whitespace run), trim both ends.
//
// An ASCII byte yields at most one output byte, so the kernel grows dst
// once by len(s) and writes by index. The first non-ASCII byte hands
// the rest of s, and the space-run state, to appendNormalizedRunes.
//
//hot:normalize every judged response flows through here
func appendNormalized(dst []byte, s string) []byte {
	base := len(dst)
	out := slices.Grow(dst, len(s))[:base+len(s)]
	n := base
	lastSpace := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch normClass[c] {
		case classKeep:
			out[n] = c
			n++
			lastSpace = false
		case classUpper:
			out[n] = c + 'a' - 'A'
			n++
			lastSpace = false
		case classSpace:
			if !lastSpace && n > base {
				out[n] = ' '
				n++
				lastSpace = true
			}
		case classDrop:
			// Skipped; a space run on either side stays one run.
		case classRune:
			return appendNormalizedRunes(out[:n], s[i:], base, lastSpace)
		}
	}
	// At most one trailing collapsed space to trim.
	if lastSpace {
		n--
	}
	return out[:n]
}

// appendNormalizedRunes finishes appendNormalized from its first
// non-ASCII byte on, decoding runes and lowering them through the
// Unicode tables; base is where the canonical form starts in dst, and
// lastSpace whether dst ends in a collapsed space.
//
//hot:normalize the non-ASCII tail of a judged response
func appendNormalizedRunes(dst []byte, s string, base int, lastSpace bool) []byte {
	for _, r := range s {
		if r < utf8.RuneSelf {
			switch normClass[r] {
			case classUpper:
				r += 'a' - 'A'
			case classSpace:
				r = ' '
			case classDrop:
				continue
			}
		} else if r = unicode.ToLower(r); unicode.IsSpace(r) {
			r = ' '
		}
		if r != ' ' {
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
		} else if !lastSpace && len(dst) > base {
			dst = append(dst, ' ')
			lastSpace = true
		}
	}
	if lastSpace {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// baseUnits are unit spellings reduced to a canonical token.
var baseUnits = map[string]string{
	"ohm": "ohm", "ohms": "ohm", "\u03a9": "ohm", "\u2126": "ohm",
	"v": "v", "volt": "v", "volts": "v",
	"a": "a", "amp": "a", "amps": "a", "ampere": "a", "amperes": "a",
	"s": "s", "siemens": "s_siemens", "sec": "s", "second": "s", "seconds": "s",
	"hz": "hz", "hertz": "hz",
	"f": "f", "farad": "f", "farads": "f",
	"db":      "db",
	"degrees": "deg", "degree": "deg", "deg": "deg",
	"rad/s": "rad/s", "rads": "rad/s",
	"v/v": "v/v",
	"min": "min", "minute": "min", "minutes": "min",
	"nm": "nm", "um": "um", "mm": "mm", "cm": "cm", "ps": "ps", "ns": "ns",
	"mv": "mv", "mhz": "mhz", "khz": "khz", "ghz": "ghz",
	"cycles": "count", "cycle": "count", "hops": "count", "hop": "count",
	"sets": "count", "tracks": "count", "units": "count", "unit": "count",
	"edges": "count", "masks": "count", "dies": "count", "die": "count",
	"buffers": "count", "comparators": "count", "macs": "count",
	"violations": "count", "misses": "count", "hits": "count",
	"mispredictions": "count", "x": "count", "%": "percent", "percent": "percent",
	"cpi": "count", "mhz2": "mhz",
	"sq": "count", "ohm/sq": "ohm/sq", "ohms/sq": "ohm/sq", "\u03a9/sq": "ohm/sq", "\u2126/sq": "ohm/sq",
	"gate": "count", "gates": "count", "delays": "count",
}

// ParseNumber extracts the first numeric value from a response together
// with any SI-scaled unit, returning the value scaled to base units and
// the canonical unit token (empty when none). ok is false when the
// response contains no number.
//
// Examples: "2.2 kOhm" -> (2200, "ohm"); "-10 V/V" -> (-10, "v/v");
// "about 43 nm of silicon" -> (43, "nm").
//
//hot:number per-event judge path for numeric answers; steady-state zero-alloc
func ParseNumber(resp string) (value float64, unit string, ok bool) {
	s := strings.TrimSpace(resp)
	// Find the first number. Digits and signs are ASCII, and ASCII bytes
	// never occur inside a multi-byte UTF-8 rune, so a byte scan over
	// the raw string is exact — no lowered copy needed.
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			start = i
			break
		}
		if (c == '-' || c == '+') && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, "", false
	}
	end := start
	if s[end] == '-' || s[end] == '+' {
		end++
	}
	seenDot := false
	seenExp := false
	for end < len(s) {
		c := s[end]
		switch {
		case c >= '0' && c <= '9':
			end++
		case c == '.' && !seenDot:
			seenDot = true
			end++
		case (c == 'e' || c == 'E') && !seenExp && end+1 < len(s) &&
			(s[end+1] == '-' || s[end+1] == '+' || s[end+1] >= '0' && s[end+1] <= '9'):
			// Exponent only when followed by digits (avoid eating words
			// like "edges").
			j := end + 1
			if s[j] == '-' || s[j] == '+' {
				j++
			}
			if j < len(s) && s[j] >= '0' && s[j] <= '9' {
				seenExp = true
				end = j
			} else {
				goto numDone
			}
		default:
			goto numDone
		}
	}
numDone:
	v, err := strconv.ParseFloat(s[start:end], 64)
	if err != nil {
		return 0, "", false
	}
	// Parse the unit token following the number, preserving case so the
	// mega/milli distinction ("Mrad/s" vs "mrad/s") survives.
	tok := leadingUnitToken(strings.TrimLeft(s[end:], " \t"))
	value, unit = applyUnit(v, tok)
	return value, unit, true
}

// leadingUnitToken returns the unit token at the start of s: ASCII
// letters, '/' and '%', and the non-ASCII unit signs of unitRunes.
func leadingUnitToken(s string) string {
	end := 0
	for end < len(s) {
		c := s[end]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '/' || c == '%':
			end++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(s[end:])
			if !strings.ContainsRune(unitRunes, r) {
				return s[:end]
			}
			end += n
		default:
			return s[:end]
		}
	}
	return s[:end]
}

// unitRunes are the non-ASCII signs a unit token may hold: the ohm as
// capital omega (U+03A9) and as the ohm sign (U+2126), and micro as the
// micro sign (U+00B5) and as small mu (U+03BC).
const unitRunes = "\u03a9\u2126\u00b5\u03bc"

// caseSensitivePrefixes maps SI prefixes preserving the mega/milli case
// distinction; tried longest first.
var caseSensitivePrefixes = []struct {
	text string
	mult float64
}{
	{"meg", 1e6}, {"Meg", 1e6}, {"MEG", 1e6},
	{"G", 1e9}, {"M", 1e6}, {"k", 1e3}, {"K", 1e3},
	{"m", 1e-3}, {"u", 1e-6}, {"\u00b5", 1e-6}, {"\u03bc", 1e-6},
	{"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
	{"N", 1e-9}, {"P", 1e-12},
}

// applyUnit resolves an attached unit token like "kOhm", "mV", "ns" into
// (scaledValue, canonicalBaseUnit). Well-known compound spellings are
// handled first; otherwise a case-sensitive SI prefix is split off.
// tok is ASCII apart from the unit signs leadingUnitToken admits, which
// have no ASCII case to fold, so an in-place ASCII fold into a stack
// buffer replaces the old strings.ToLower copy; only the unknown-unit
// fallback return still materialises a lowered string.
//
//hot:number unit resolution on the numeric judge path
func applyUnit(v float64, tok string) (float64, string) {
	if tok == "" {
		return v, ""
	}
	var arr [24]byte
	low := appendLowerASCII(arr[:0], tok)
	// Exact unit (handles compound tokens like mV, ns, kHz, rad/s
	// directly — these carry their own scale). "mhz" always means MHz:
	// millihertz does not occur in this domain.
	if u, ok := baseUnits[string(low)]; ok {
		switch {
		case string(low) == "mv":
			return v * 1e-3, "v"
		case string(low) == "khz":
			return v * 1e3, "hz"
		case string(low) == "mhz":
			return v * 1e6, "hz"
		case string(low) == "ghz":
			return v * 1e9, "hz"
		default:
			return v, u
		}
	}
	for _, p := range caseSensitivePrefixes {
		if strings.HasPrefix(tok, p.text) {
			if u, ok := baseUnits[string(low[len(p.text):])]; ok {
				return v * p.mult, u
			}
		}
	}
	return v, string(low)
}

// appendLowerASCII appends s to dst with A-Z folded to a-z. Exact for
// the tokens leadingUnitToken produces, whose non-ASCII unit signs
// have no lower case to fold to.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// NumbersClose compares two values with a relative tolerance, treating
// tolerances below 1e-9 as exact comparison of rounded values.
func NumbersClose(a, b, tol float64) bool {
	if tol < 1e-9 {
		return a == b
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1e-12 {
		return diff <= tol
	}
	return diff/scale <= tol
}
