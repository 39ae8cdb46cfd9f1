package digital

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dataset"
)

// rowsCase splits a row-kind assignment into the minterm and
// don't-care lists Minimize takes.
func rowsCase(rows []uint8) (minterms, dontCares []int) {
	for m, r := range rows {
		switch r {
		case rowOn:
			minterms = append(minterms, m)
		case rowDontCare:
			dontCares = append(dontCares, m)
		}
	}
	return minterms, dontCares
}

// checkMinimizeMatchesOracle asserts that Minimize and the qm string
// path both render exactly what the pre-rewrite minimiser renders.
func checkMinimizeMatchesOracle(t *testing.T, vars []string, rows []uint8) {
	t.Helper()
	minterms, dontCares := rowsCase(rows)
	want := oracleMinimize(vars, minterms, dontCares).String()
	if got := Minimize(vars, minterms, dontCares).String(); got != want {
		t.Fatalf("Minimize(%v, on %v, dc %v) = %q, oracle %q", vars, minterms, dontCares, got, want)
	}
	var q qm
	on := q.minimize(vars, rows)
	if got := string(q.appendSOP(nil, on, len(rows))); got != want {
		t.Fatalf("qm SOP(%v, on %v, dc %v) = %q, oracle %q", vars, minterms, dontCares, got, want)
	}
}

// TestMinimizeMatchesOracleExhaustive walks every off/on/don't-care
// assignment over two and three variables (3^4 + 3^8 functions).
func TestMinimizeMatchesOracleExhaustive(t *testing.T) {
	for _, vars := range [][]string{{"A", "B"}, {"A", "B", "C"}} {
		size := 1 << len(vars)
		rows := make([]uint8, size)
		total := 1
		for range size {
			total *= 3
		}
		for code := 0; code < total; code++ {
			for m, c := 0, code; m < size; m, c = m+1, c/3 {
				rows[m] = uint8(c % 3)
			}
			checkMinimizeMatchesOracle(t, vars, rows)
		}
	}
}

// TestMinimizeMatchesOracleRandom4 checks seeded random four-variable
// functions, with and without don't-cares.
func TestMinimizeMatchesOracleRandom4(t *testing.T) {
	vars := []string{"Q1", "Q0", "X", "Y"}
	rng := rand.New(rand.NewSource(21))
	rows := make([]uint8, 16)
	for i := 0; i < 3000; i++ {
		kinds := 2 + i%2 // alternate plain functions and ones with don't-cares
		for m := range rows {
			rows[m] = uint8(rng.Intn(kinds))
		}
		checkMinimizeMatchesOracle(t, vars, rows)
	}
}

// TestStringMatchesOracle checks the single-buffer renderer against the
// per-node one on random trees of every node kind.
func TestStringMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		e := randomExpr(r, 1+i%5)
		if got, want := e.String(), oracleString(e); got != want {
			t.Fatalf("String() = %q, oracle %q", got, want)
		}
	}
}

// TestExpressionChoicesMatchOracle checks the golden option and the
// three distractors, in order, against the pre-rewrite distractor
// search over a few hundred seeds and minterm sets.
func TestExpressionChoicesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		vars := []string{"A", "B", "C"}
		if i%4 == 3 {
			vars = []string{"A", "B", "C", "D"}
		}
		size := 1 << len(vars)
		minterms := rng.Perm(size)[:1+rng.Intn(size-1)]
		dataset.SortInts(minterms)
		seed := "diff-" + strconv.Itoa(i)
		golden, others := expressionChoices(seed, vars, minterms, "F")
		if want := "F = " + oracleMinimize(vars, minterms, nil).String(); golden != want {
			t.Fatalf("seed %s %v: golden %q, oracle %q", seed, minterms, golden, want)
		}
		if want := oracleExpressionDistractors(seed, vars, minterms, "F"); others != want {
			t.Fatalf("seed %s %v: distractors %q, oracle %q", seed, minterms, others, want)
		}
	}
}
