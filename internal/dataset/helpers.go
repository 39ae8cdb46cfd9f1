package dataset

import "strconv"

// Small slice helpers shared by the discipline generators. These used
// to be copy-pasted per package; they live here because every
// generator already imports dataset and their behaviour is part of the
// generators' determinism contract (stable order, no map iteration).

// IndexOf returns the index of x in xs, or 0 when absent — the
// generators use the result modularly to pick "the next" entry, so a
// miss deliberately aliases to the first element rather than failing.
func IndexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

// SortInts sorts a small int slice in place with insertion sort. The
// generators sort minterm lists and token counts of length ≤ a few
// dozen; insertion sort keeps the dataset layer free of a sort import
// for these and is branch-predictable at that size.
func SortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// PickOthers selects the first three pool entries that differ from the
// answer — the standard distractor picker for questions whose options
// come from a fixed label pool. The pool must contain at least three
// non-answer entries; trailing slots stay empty otherwise (callers'
// pools are static literals, checked by the benchmark composition
// tests).
func PickOthers(answer string, pool []string) [3]string {
	var out [3]string
	i := 0
	for _, p := range pool {
		if p != answer && i < 3 {
			out[i] = p
			i++
		}
	}
	return out
}

// ExtraID returns the ID of the i-th extended question of fold seed:
// prefix and seed, then i zero-padded to two digits ("xd-fold-07").
func ExtraID(prefix, seed string, i int) string {
	var buf [64]byte
	b := append(append(append(buf[:0], prefix...), seed...), '-')
	if i >= 0 && i < 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// AppendExtraInst appends "<seed>-<i>", the instance key the i-th
// extended question of fold seed draws its parameters from. The key
// never outlives ExtraAt, so a generator converts it with string() in
// place and the compiler keeps it on the stack; unlike the ID, which
// the question retains, it costs no allocation.
func AppendExtraInst(dst []byte, seed string, i int) []byte {
	return strconv.AppendInt(append(append(dst, seed...), '-'), int64(i), 10)
}
