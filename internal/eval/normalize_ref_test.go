package eval

import (
	"bytes"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// appendNormalizedRef is the byte-at-a-time normaliser the table-driven
// kernel replaced, kept verbatim as the oracle appendNormalized must
// match byte for byte.
func appendNormalizedRef(dst []byte, s string) []byte {
	base := len(dst)
	lastSpace := false
	i := 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			// ASCII fast path: no rune decoding, no case tables.
			switch {
			case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
				if !lastSpace && len(dst) > base {
					dst = append(dst, ' ')
					lastSpace = true
				}
			case c == '.' || c == ',' || c == '!' || c == '"':
				// Sentence punctuation dropped; keep signs, parens, units.
			default:
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst = append(dst, c)
				lastSpace = false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		r = unicode.ToLower(r)
		switch {
		case unicode.IsSpace(r):
			if !lastSpace && len(dst) > base {
				dst = append(dst, ' ')
				lastSpace = true
			}
		default:
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
		}
	}
	// At most one trailing collapsed space to trim.
	if lastSpace {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// normalizePrefix stands for the bytes a Scratch buffer or a caller
// already holds: the kernel must append after them and leave them be.
const normalizePrefix = "Keep ME,  "

// checkAppendNormalized compares appendNormalized with the oracle on s
// twice: into a prefix with no spare capacity, so the kernel must grow
// it, and into a roomy buffer whose spare bytes hold stale data, so it
// must not read or keep any of them.
func checkAppendNormalized(t *testing.T, s string) {
	t.Helper()
	want := appendNormalizedRef([]byte(normalizePrefix), s)
	exact := []byte(normalizePrefix)
	roomy := append(make([]byte, 0, len(normalizePrefix)+len(s)+16), normalizePrefix...)
	stale := roomy[len(roomy):cap(roomy)]
	for i := range stale {
		stale[i] = 'X'
	}
	for _, dst := range [][]byte{exact[:len(exact):len(exact)], roomy} {
		if got := appendNormalized(dst, s); !bytes.Equal(got, want) {
			t.Fatalf("appendNormalized(%q, %q) = %q, want %q", normalizePrefix, s, got, want)
		}
	}
}

// FuzzAppendNormalizedMatchesRef is the differential oracle for the
// kernel: on any input it must produce the oracle's bytes.
func FuzzAppendNormalizedMatchesRef(f *testing.F) {
	long := strings.Repeat("The Gain Is -10 V/V, Roughly.  ", 6) // 186 bytes
	for _, seed := range []string{
		// A non-ASCII byte first, mid-string and last.
		"µA bias", "İSTANBUL", "bias of 10 µA", "DOTTED İ IN THE MIDDLE", "ends with µ",
		"ends with nbsp\u00a0", "İ",
		// Non-ASCII whitespace joining an ASCII run, and lowering to ASCII.
		"a \u00a0 b", "a\u2003\u3000b", "\u00a0 lead", "\u212a kelvin", "Ⱥ grows",
		// Invalid UTF-8.
		"\xff", "a\x80b", "\xe2\x82",
		// Whitespace runs broken by dropped punctuation.
		"a . b", "a  ,  b", "x ! \" y", "a.\t,\n!b", "\" quoted \"",
		// Leading and trailing whitespace.
		"  \t lead", "trail \n ", " . ", "\n\v\f\r", "", "a",
		// Longer than Scratch's 128-byte starting buffer.
		long, long + "µ", "µ" + long, long[:100] + "\u00a0" + long,
	} {
		f.Add(seed)
	}
	f.Fuzz(checkAppendNormalized)
}
