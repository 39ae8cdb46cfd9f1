package digital

// The Quine–McCluskey minimiser, the expression-distractor search and
// the expression renderer as they stood before the minimiser moved to
// flat row sets and rendering to a single buffer, kept verbatim as
// oracles: qm_diff_test.go asserts the rewrite renders the same
// strings, term order included.

import (
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// oracleImplicant is a product term over n variables: value holds the fixed
// bits, mask holds 1 for positions that are don't-care within the term.
type oracleImplicant struct {
	value, mask int
	covers      []int // minterm indices covered
}

func (im oracleImplicant) covered(m int) bool {
	return m&^im.mask == im.value&^im.mask
}

// oracleMinimize performs Quine–McCluskey two-level minimisation of the
// function given by minterms (and optional don't-cares) over the ordered
// variable list, returning the minimal sum-of-products expression.
// Constant functions return Const nodes. The variable order matches
// TruthTable/Minterms: the first variable is the most significant bit.
func oracleMinimize(vars []string, minterms, dontCares []int) Expr {
	n := len(vars)
	size := 1 << n
	onSet := make(map[int]bool)
	for _, m := range minterms {
		if m >= 0 && m < size {
			onSet[m] = true
		}
	}
	if len(onSet) == 0 {
		return &Const{Value: false}
	}
	if len(onSet) == size {
		return &Const{Value: true}
	}
	careSet := make(map[int]bool)
	for m := range onSet {
		careSet[m] = true
	}
	for _, m := range dontCares {
		if m >= 0 && m < size && !onSet[m] {
			careSet[m] = true
		}
	}

	primes := oraclePrimeImplicants(careSet, n)
	chosen := oracleCoverMinterms(primes, onSet)

	// Build the SOP expression.
	terms := make([]Expr, 0, len(chosen))
	for _, im := range chosen {
		terms = append(terms, oracleImplicantExpr(im, vars, n))
	}
	if len(terms) == 1 {
		return terms[0]
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].String() < terms[j].String() })
	return &Or{Xs: terms}
}

func oraclePrimeImplicants(careSet map[int]bool, n int) []oracleImplicant {
	current := make([]oracleImplicant, 0, len(careSet))
	for m := range careSet {
		current = append(current, oracleImplicant{value: m})
	}
	sort.Slice(current, func(i, j int) bool { return current[i].value < current[j].value })

	var primes []oracleImplicant
	for len(current) > 0 {
		combined := make(map[[2]int]bool) // dedupe next generation
		used := make([]bool, len(current))
		var next []oracleImplicant
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				a, b := current[i], current[j]
				if a.mask != b.mask {
					continue
				}
				diff := (a.value ^ b.value) &^ a.mask
				if diff == 0 || diff&(diff-1) != 0 {
					continue // must differ in exactly one non-masked bit
				}
				nv := a.value &^ diff
				nm := a.mask | diff
				key := [2]int{nv &^ nm, nm}
				used[i], used[j] = true, true
				if !combined[key] {
					combined[key] = true
					next = append(next, oracleImplicant{value: nv &^ nm, mask: nm})
				}
			}
		}
		for i, im := range current {
			if !used[i] {
				primes = append(primes, im)
			}
		}
		current = next
	}
	return primes
}

// oracleCoverMinterms picks a small set of primes covering all onSet minterms:
// essential primes first, then greedy set cover (largest uncovered gain,
// ties by fewest literals then lexicographic), which matches the minimal
// cover on all the K-map-sized functions the benchmark generates.
func oracleCoverMinterms(primes []oracleImplicant, onSet map[int]bool) []oracleImplicant {
	minterms := make([]int, 0, len(onSet))
	for m := range onSet {
		minterms = append(minterms, m)
	}
	sort.Ints(minterms)

	coveredBy := make(map[int][]int) // minterm -> prime indices
	for pi, p := range primes {
		for _, m := range minterms {
			if p.covered(m) {
				coveredBy[m] = append(coveredBy[m], pi)
			}
		}
	}

	chosen := make(map[int]bool)
	covered := make(map[int]bool)
	// Essential primes.
	for _, m := range minterms {
		if len(coveredBy[m]) == 1 {
			pi := coveredBy[m][0]
			if !chosen[pi] {
				chosen[pi] = true
				for _, mm := range minterms {
					if primes[pi].covered(mm) {
						covered[mm] = true
					}
				}
			}
		}
	}
	// Greedy cover for the rest.
	for {
		remaining := 0
		for _, m := range minterms {
			if !covered[m] {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		best, bestGain, bestBits := -1, -1, -1
		for pi, p := range primes {
			if chosen[pi] {
				continue
			}
			gain := 0
			for _, m := range minterms {
				if !covered[m] && p.covered(m) {
					gain++
				}
			}
			bits := oraclePopcount(p.mask)
			if gain > bestGain || (gain == bestGain && bits > bestBits) {
				best, bestGain, bestBits = pi, gain, bits
			}
		}
		if best < 0 || bestGain == 0 {
			break // unreachable for consistent inputs
		}
		chosen[best] = true
		for _, m := range minterms {
			if primes[best].covered(m) {
				covered[m] = true
			}
		}
	}

	out := make([]oracleImplicant, 0, len(chosen))
	idxs := make([]int, 0, len(chosen))
	for pi := range chosen {
		idxs = append(idxs, pi)
	}
	sort.Ints(idxs)
	for _, pi := range idxs {
		out = append(out, primes[pi])
	}
	return out
}

func oracleImplicantExpr(im oracleImplicant, vars []string, n int) Expr {
	var lits []Expr
	for i := 0; i < n; i++ {
		bit := 1 << (n - 1 - i)
		if im.mask&bit != 0 {
			continue
		}
		if im.value&bit != 0 {
			lits = append(lits, &Var{Name: vars[i]})
		} else {
			lits = append(lits, &Not{X: &Var{Name: vars[i]}})
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

func oraclePopcount(v int) int {
	c := 0
	for v != 0 {
		v &= v - 1
		c++
	}
	return c
}

// oracleExpressionDistractors derives three plausible but non-equivalent
// expressions by perturbing the minterm set and re-minimising, so the
// distractors look syntactically similar to the golden answer — the
// property §III-B1 demands of answer options.
func oracleExpressionDistractors(seed string, vars []string, minterms []int, lhs string) [3]string {
	golden := oracleMinimize(vars, minterms, nil)
	r := rng.New("digital-distract", seed)
	var out [3]string
	seen := map[string]bool{golden.String(): true}
	size := 1 << len(vars)
	for i := 0; i < 3; {
		// Flip one or two rows of the truth table.
		set := make(map[int]bool)
		for _, m := range minterms {
			set[m] = true
		}
		flips := 1 + r.IntN(2)
		for f := 0; f < flips; f++ {
			m := r.IntN(size)
			if set[m] {
				delete(set, m)
			} else {
				set[m] = true
			}
		}
		if len(set) == 0 || len(set) == size {
			continue
		}
		var ms []int
		for m := range set {
			ms = append(ms, m)
		}
		dataset.SortInts(ms)
		cand := oracleMinimize(vars, ms, nil)
		cs := cand.String()
		if seen[cs] || Equivalent(cand, golden) {
			continue
		}
		seen[cs] = true
		out[i] = lhs + " = " + cs
		i++
	}
	return out
}

// oracleString is the per-node String rendering, one string per node.
func oracleString(e Expr) string {
	switch x := e.(type) {
	case *Var:
		return x.Name
	case *Const:
		if x.Value {
			return "1"
		}
		return "0"
	case *Not:
		switch y := x.X.(type) {
		case *Var:
			return y.Name + "'"
		case *Const:
			return oracleString(y) + "'"
		default:
			return "(" + oracleString(x.X) + ")'"
		}
	case *And:
		parts := make([]string, len(x.Xs))
		for i, e := range x.Xs {
			if _, isOr := e.(*Or); isOr {
				parts[i] = "(" + oracleString(e) + ")"
			} else if _, isXor := e.(*Xor); isXor {
				parts[i] = "(" + oracleString(e) + ")"
			} else {
				parts[i] = oracleString(e)
			}
		}
		return strings.Join(parts, "")
	case *Or:
		parts := make([]string, len(x.Xs))
		for i, e := range x.Xs {
			parts[i] = oracleString(e)
		}
		return strings.Join(parts, " + ")
	case *Xor:
		return oracleXorOperand(x.A) + " ^ " + oracleXorOperand(x.B)
	}
	panic("unknown node")
}

func oracleXorOperand(e Expr) string {
	if _, isOr := e.(*Or); isOr {
		return "(" + oracleString(e) + ")"
	}
	return oracleString(e)
}
