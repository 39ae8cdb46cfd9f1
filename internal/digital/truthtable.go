package digital

// TruthTable is a complete truth table over an ordered variable list.
// Row m assigns variable i the bit (m >> (n-1-i)) & 1, the textbook
// convention where the first variable is the most significant bit.
type TruthTable struct {
	Vars []string
	Out  []bool // length 1 << len(Vars)
}

// NewTruthTable builds the table of an expression over the given
// variable order. Variables in vars that the expression ignores are
// legal (don't-care columns).
func NewTruthTable(e Expr, vars []string) *TruthTable {
	n := len(vars)
	t := &TruthTable{Vars: vars, Out: make([]bool, 1<<n)}
	assign := make(map[string]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i, v := range vars {
			assign[v] = m&(1<<(n-1-i)) != 0
		}
		t.Out[m] = e.Eval(assign)
	}
	return t
}

// FromMinterms builds a table from a minterm list.
func FromMinterms(vars []string, minterms []int) *TruthTable {
	t := &TruthTable{Vars: vars, Out: make([]bool, 1<<len(vars))}
	for _, m := range minterms {
		if m >= 0 && m < len(t.Out) {
			t.Out[m] = true
		}
	}
	return t
}

// Minterms returns the sorted indices of true rows.
func (t *TruthTable) Minterms() []int {
	n := 0
	for _, v := range t.Out {
		if v {
			n++
		}
	}
	out := make([]int, 0, n)
	for m, v := range t.Out {
		if v {
			out = append(out, m)
		}
	}
	return out
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
