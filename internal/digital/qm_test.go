package digital

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMinimizeKnown(t *testing.T) {
	cases := []struct {
		vars     []string
		minterms []int
		dontCare []int
		want     string // an equivalent expression (comparison is functional)
		maxLits  int    // minimality bound on literal count
	}{
		// Classic 2-variable: F = m(1,3) over [A,B] = B.
		{[]string{"A", "B"}, []int{1, 3}, nil, "B", 1},
		// F = m(0,1,2,3) = 1.
		{[]string{"A", "B"}, []int{0, 1, 2, 3}, nil, "1", 0},
		// F = m(3) = AB.
		{[]string{"A", "B"}, []int{3}, nil, "AB", 2},
		// Majority over [A,B,C]: m(3,5,6,7) = AB + AC + BC.
		{[]string{"A", "B", "C"}, []int{3, 5, 6, 7}, nil, "AB + AC + BC", 6},
		// XOR cannot be reduced: m(1,2) over [A,B] = A'B + AB'.
		{[]string{"A", "B"}, []int{1, 2}, nil, "A'B + AB'", 4},
		// Don't-cares enable a bigger cube: m(1) with d(3) over [A,B] = B.
		{[]string{"A", "B"}, []int{1}, []int{3}, "B", 1},
		// The SR characteristic equation: vars [S,R,q], on m(1,4,5),
		// don't care m(6,7): Q+ = S + R'q.
		{[]string{"S", "R", "q"}, []int{1, 4, 5}, []int{6, 7}, "S + R'q", 3},
	}
	for i, c := range cases {
		got := Minimize(c.vars, c.minterms, c.dontCare)
		if !EquivalentStrings(got.String(), c.want) {
			// Don't-care positions make direct equivalence too strict;
			// verify agreement on all care points instead.
			if !agreesOnCares(got, c.vars, c.minterms, c.dontCare) {
				t.Errorf("case %d: Minimize = %q, want equivalent of %q", i, got, c.want)
			}
		}
		if lits := LiteralCount(got); c.maxLits > 0 && lits > c.maxLits {
			t.Errorf("case %d: %q has %d literals, expected at most %d", i, got, lits, c.maxLits)
		}
	}
}

func agreesOnCares(e Expr, vars []string, minterms, dontCares []int) bool {
	on := make(map[int]bool)
	for _, m := range minterms {
		on[m] = true
	}
	dc := make(map[int]bool)
	for _, m := range dontCares {
		dc[m] = true
	}
	assign := make(map[string]bool, len(vars))
	for m := 0; m < 1<<len(vars); m++ {
		if dc[m] {
			continue
		}
		for i, v := range vars {
			assign[v] = m&(1<<(len(vars)-1-i)) != 0
		}
		if e.Eval(assign) != on[m] {
			return false
		}
	}
	return true
}

func TestMinimizeConstants(t *testing.T) {
	if got := Minimize([]string{"A", "B"}, nil, nil); got.String() != "0" {
		t.Errorf("empty on-set: got %q, want 0", got)
	}
	if got := Minimize([]string{"A"}, []int{0, 1}, nil); got.String() != "1" {
		t.Errorf("full on-set: got %q, want 1", got)
	}
}

func TestQuickMinimizePreservesFunction(t *testing.T) {
	// Property: the minimised expression computes exactly the original
	// on-set (no don't-cares).
	vars := []string{"A", "B", "C", "D"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var minterms []int
		for m := 0; m < 16; m++ {
			if r.Intn(2) == 0 {
				minterms = append(minterms, m)
			}
		}
		e := Minimize(vars, minterms, nil)
		return agreesOnCares(e, vars, minterms, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizeRespectsOnSetWithDontCares(t *testing.T) {
	// Property: with don't-cares, the result still covers every minterm
	// and excludes every off-set point.
	vars := []string{"A", "B", "C"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var minterms, dontCares []int
		for m := 0; m < 8; m++ {
			switch r.Intn(3) {
			case 0:
				minterms = append(minterms, m)
			case 1:
				dontCares = append(dontCares, m)
			}
		}
		if len(minterms) == 0 {
			return true
		}
		e := Minimize(vars, minterms, dontCares)
		return agreesOnCares(e, vars, minterms, dontCares)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizeNeverLonger(t *testing.T) {
	// Property: the minimised SOP never has more literals than the
	// canonical sum of minterms.
	vars := []string{"A", "B", "C"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var minterms []int
		for m := 0; m < 8; m++ {
			if r.Intn(2) == 0 {
				minterms = append(minterms, m)
			}
		}
		if len(minterms) == 0 || len(minterms) == 8 {
			return true
		}
		e := Minimize(vars, minterms, nil)
		return LiteralCount(e) <= len(minterms)*len(vars)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLiteralCount(t *testing.T) {
	cases := []struct {
		expr string
		want int
	}{
		{"AB + A'C", 4},
		{"A", 1},
		{"1", 0},
		{"A'B'C'", 3},
	}
	for _, c := range cases {
		if got := LiteralCount(MustParse(c.expr)); got != c.want {
			t.Errorf("LiteralCount(%q) = %d, want %d", c.expr, got, c.want)
		}
	}
}

// LiteralCount is the cost metric the minimiser tests compare with.

// LiteralCount counts variable literals in a rendered SOP expression —
// the cost metric minimisation questions compare.
func LiteralCount(e Expr) int {
	count := 0
	for _, r := range e.String() {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			count++
		}
	}
	return count
}
