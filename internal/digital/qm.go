package digital

import (
	"bytes"
	"slices"
)

// implicant is a product term over n variables: value holds the fixed
// bits, mask holds 1 for positions that are don't-care within the term.
// value is zero under mask, so the term covers m when m&^mask == value.
type implicant struct{ value, mask int }

func (im implicant) covers(m int) bool { return m&^im.mask == im.value }

// Row kinds of a function under minimisation: one per truth-table row.
const (
	rowOff uint8 = iota
	rowOn
	rowDontCare
)

// term is a chosen implicant with its rendering, key[lo:hi] of the qm.
type term struct {
	implicant
	lo, hi int
}

// qm is the scratch of Quine–McCluskey minimisation. The zero value is
// ready, and one qm reused across calls allocates its buffers once: the
// distractor search minimises several perturbed functions in a row.
type qm struct {
	cur, next, primes []implicant
	used, taken       []bool
	covered           []bool
	cover             []term
	key               []byte
}

// Minimize performs Quine–McCluskey two-level minimisation of the
// function given by minterms (and optional don't-cares) over the ordered
// variable list, returning the minimal sum-of-products expression.
// Constant functions return Const nodes. The variable order matches
// TruthTable/Minterms: the first variable is the most significant bit.
func Minimize(vars []string, minterms, dontCares []int) Expr {
	var q qm
	return q.expr(vars, minimizeRows(vars, minterms, dontCares, nil))
}

// minimizeRows lays minterms and dontCares out as the 1<<len(vars) row
// kinds qm.minimize takes, reusing rows' storage; out-of-range indices
// are ignored and a row both on and don't-care is on.
func minimizeRows(vars []string, minterms, dontCares []int, rows []uint8) []uint8 {
	rows = resize(rows, 1<<len(vars))
	for _, m := range dontCares {
		if m >= 0 && m < len(rows) {
			rows[m] = rowDontCare
		}
	}
	for _, m := range minterms {
		if m >= 0 && m < len(rows) {
			rows[m] = rowOn
		}
	}
	return rows
}

// resize returns s cleared to length n, reusing its storage when it
// is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// minimize chooses the minimal cover of rows (1<<len(vars) row kinds)
// into q.cover, in the order the SOP lists its terms: lexicographic by
// rendered term. It returns the number of on rows; with none, or all,
// the function is constant and q.cover is empty.
func (q *qm) minimize(vars []string, rows []uint8) int {
	on := 0
	for _, r := range rows {
		if r == rowOn {
			on++
		}
	}
	q.cover = q.cover[:0]
	if on == 0 || on == len(rows) {
		return on
	}
	q.primeImplicants(len(vars), rows)
	q.coverOn(rows)
	q.key = q.key[:0]
	for i := range q.cover {
		t := &q.cover[i]
		t.lo = len(q.key)
		q.key = appendTerm(q.key, t.implicant, vars)
		t.hi = len(q.key)
	}
	key := q.key
	slices.SortFunc(q.cover, func(a, b term) int {
		return bytes.Compare(key[a.lo:a.hi], key[b.lo:b.hi])
	})
	return on
}

// primeImplicants fills q.primes with the prime implicants of the on
// and don't-care rows: each generation merges pairs of equal-mask terms
// that differ in one fixed bit, first discovery first, and a term no
// merge used is prime.
func (q *qm) primeImplicants(n int, rows []uint8) {
	// Room for the largest merge generation of up to five variables
	// (n*2^(n-1) terms) and for one prime per row: the K-map-sized
	// functions the generators minimise then never regrow a buffer.
	cur := slices.Grow(q.cur[:0], len(rows)*max(2, n)/2)
	next := slices.Grow(q.next[:0], len(rows)*max(2, n)/2)
	primes := slices.Grow(q.primes[:0], len(rows))
	for m, r := range rows {
		if r != rowOff {
			cur = append(cur, implicant{value: m})
		}
	}
	for len(cur) > 0 {
		next = next[:0]
		q.used = resize(q.used, len(cur))
		for i := range cur {
			for j := i + 1; j < len(cur); j++ {
				a, b := cur[i], cur[j]
				if a.mask != b.mask {
					continue
				}
				diff := (a.value ^ b.value) &^ a.mask
				if diff == 0 || diff&(diff-1) != 0 {
					continue // must differ in exactly one non-masked bit
				}
				nm := a.mask | diff
				merged := implicant{value: a.value &^ nm, mask: nm}
				q.used[i], q.used[j] = true, true
				if !slices.Contains(next, merged) {
					next = append(next, merged)
				}
			}
		}
		for i, im := range cur {
			if !q.used[i] {
				primes = append(primes, im)
			}
		}
		cur, next = next, cur
	}
	q.cur, q.next, q.primes = cur, next, primes
}

// coverOn picks a small set of q.primes covering every on row into
// q.cover, in prime order: essential primes first, then greedy set
// cover (largest uncovered gain, ties by fewest literals then earliest
// prime), which matches the minimal cover on all the K-map-sized
// functions the benchmark generates.
func (q *qm) coverOn(rows []uint8) {
	q.taken = resize(q.taken, len(q.primes))
	q.covered = resize(q.covered, len(rows))
	take := func(pi int) {
		q.taken[pi] = true
		for m, r := range rows {
			if r == rowOn && q.primes[pi].covers(m) {
				q.covered[m] = true
			}
		}
	}
	// Essential primes.
	for m, r := range rows {
		if r != rowOn {
			continue
		}
		only, n := -1, 0
		for pi, p := range q.primes {
			if p.covers(m) {
				only, n = pi, n+1
			}
		}
		if n == 1 && !q.taken[only] {
			take(only)
		}
	}
	// Greedy cover for the rest.
	for q.uncovered(rows) {
		best, bestGain, bestBits := -1, -1, -1
		for pi, p := range q.primes {
			if q.taken[pi] {
				continue
			}
			gain := 0
			for m, r := range rows {
				if r == rowOn && !q.covered[m] && p.covers(m) {
					gain++
				}
			}
			bits := popcount(p.mask)
			if gain > bestGain || (gain == bestGain && bits > bestBits) {
				best, bestGain, bestBits = pi, gain, bits
			}
		}
		if best < 0 || bestGain == 0 {
			break // unreachable for consistent inputs
		}
		take(best)
	}
	for pi, p := range q.primes {
		if q.taken[pi] {
			q.cover = append(q.cover, term{implicant: p})
		}
	}
}

// uncovered reports whether some on row is still outside q.cover.
func (q *qm) uncovered(rows []uint8) bool {
	for m, r := range rows {
		if r == rowOn && !q.covered[m] {
			return true
		}
	}
	return false
}

// appendTerm renders a product term the way its Expr prints: the
// fixed variables in order, complemented ones primed, and "1" for the
// term with no literal.
func appendTerm(dst []byte, im implicant, vars []string) []byte {
	n := len(vars)
	if im.mask == 1<<n-1 {
		return append(dst, '1')
	}
	for i, v := range vars {
		bit := 1 << (n - 1 - i)
		if im.mask&bit != 0 {
			continue
		}
		dst = append(dst, v...)
		if im.value&bit == 0 {
			dst = append(dst, '\'')
		}
	}
	return dst
}

// appendSOP renders the function q.minimize last chose with on rows of
// size: byte-identical to the String of the Expr q.expr builds.
func (q *qm) appendSOP(dst []byte, on, size int) []byte {
	switch on {
	case 0:
		return append(dst, '0')
	case size:
		return append(dst, '1')
	}
	for i, t := range q.cover {
		if i > 0 {
			dst = append(dst, " + "...)
		}
		dst = append(dst, q.key[t.lo:t.hi]...)
	}
	return dst
}

// expr minimises rows and builds the resulting sum of products.
func (q *qm) expr(vars []string, rows []uint8) Expr {
	switch on := q.minimize(vars, rows); on {
	case 0:
		return &Const{Value: false}
	case len(rows):
		return &Const{Value: true}
	}
	if len(q.cover) == 1 {
		return implicantExpr(q.cover[0].implicant, vars)
	}
	terms := make([]Expr, len(q.cover))
	for i, t := range q.cover {
		terms[i] = implicantExpr(t.implicant, vars)
	}
	return &Or{Xs: terms}
}

// implicantExpr builds the product term im as an expression tree.
func implicantExpr(im implicant, vars []string) Expr {
	n := len(vars)
	lits := make([]Expr, 0, n-popcount(im.mask))
	for i, v := range vars {
		bit := 1 << (n - 1 - i)
		if im.mask&bit != 0 {
			continue
		}
		if im.value&bit != 0 {
			lits = append(lits, &Var{Name: v})
		} else {
			lits = append(lits, &Not{X: &Var{Name: v}})
		}
	}
	switch len(lits) {
	case 0:
		return &Const{Value: true}
	case 1:
		return lits[0]
	default:
		return &And{Xs: lits}
	}
}

func popcount(v int) int {
	c := 0
	for v != 0 {
		v &= v - 1
		c++
	}
	return c
}
