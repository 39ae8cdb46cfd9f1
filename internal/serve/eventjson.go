package serve

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// appendEventJSON appends ev's JSON encoding to dst: byte for byte what
// json.Marshal(ev) returns, with no reflection and no allocation beyond
// growing dst. It writes RunEvent's keys in field order, omits the
// empty omitempty fields, and formats floats and escapes strings as
// encoding/json does (FuzzEventJSONMatchesMarshal holds the two
// together).
//
// Precondition: Ability and AbilitySE, when set, are finite. json.Marshal
// rejects NaN and ±Inf; this encoder does not check. Abilities are
// finite by construction, because the estimator's posterior lives on a
// bounded grid.
//
//hot:serve per-event encoding in the reorder buffer's drain role
func appendEventJSON(dst []byte, ev *RunEvent) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(ev.Seq), 10)
	dst = append(dst, `,"model":`...)
	dst = appendJSONString(dst, ev.Model)
	dst = append(dst, `,"question_id":`...)
	dst = appendJSONString(dst, ev.QuestionID)
	dst = append(dst, `,"category":`...)
	dst = appendJSONString(dst, ev.Category)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, ev.Type)
	dst = append(dst, `,"response":`...)
	dst = appendJSONString(dst, ev.Response)
	dst = append(dst, `,"correct":`...)
	dst = strconv.AppendBool(dst, ev.Correct)
	if ev.Ability != nil {
		dst = append(dst, `,"ability":`...)
		dst = appendJSONFloat(dst, *ev.Ability)
	}
	if ev.AbilitySE != nil {
		dst = append(dst, `,"ability_se":`...)
		dst = appendJSONFloat(dst, *ev.AbilitySE)
	}
	if ev.StopReason != "" {
		dst = append(dst, `,"stop_reason":`...)
		dst = appendJSONString(dst, ev.StopReason)
	}
	return append(dst, '}')
}

// appendJSONFloat appends a finite float64 as encoding/json writes it:
// the shortest round-trip digits, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent unpadded (e-7, not e-07).
//
//hot:serve per-event encoding in the reorder buffer's drain role
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string escaped the way
// json.Marshal escapes it: `"` and `\` backslashed; \b, \f, \n, \r, \t
// by name; other control bytes and the HTML-sensitive <, > and & as
// \u00XX; each invalid UTF-8 byte as \ufffd; and U+2028 and U+2029 as
// \u2028 and \u2029.
//
//hot:serve per-event encoding in the reorder buffer's drain role
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
