package digital

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestGateEval(t *testing.T) {
	cases := []struct {
		kind GateKind
		in   []bool
		want bool
	}{
		{GateAnd, []bool{true, true}, true},
		{GateAnd, []bool{true, false}, false},
		{GateOr, []bool{false, false}, false},
		{GateOr, []bool{false, true}, true},
		{GateNand, []bool{true, true}, false},
		{GateNor, []bool{false, false}, true},
		{GateXor, []bool{true, false}, true},
		{GateXor, []bool{true, true}, false},
		{GateXor, []bool{true, true, true}, true},
		{GateXnor, []bool{true, false}, false},
		{GateNot, []bool{true}, false},
		{GateBuf, []bool{true}, true},
		{GateAnd, []bool{true, true, true, false}, false},
	}
	for _, c := range cases {
		g := &Gate{Kind: c.kind}
		if got := g.Eval(c.in); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

func TestHalfAdderTruthTable(t *testing.T) {
	n := halfAdderNetlist()
	for _, c := range []struct {
		a, b, sum, carry bool
	}{
		{false, false, false, false},
		{false, true, true, false},
		{true, false, true, false},
		{true, true, false, true},
	} {
		v, err := n.Eval(map[string]bool{"A": c.a, "B": c.b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v["S"] != c.sum || v["Cout"] != c.carry {
			t.Errorf("half adder A=%v B=%v: S=%v Cout=%v", c.a, c.b, v["S"], v["Cout"])
		}
	}
}

func TestFullAdderMatchesArithmetic(t *testing.T) {
	n := fullAdderNetlist()
	for m := 0; m < 8; m++ {
		a, b, cin := m&4 != 0, m&2 != 0, m&1 != 0
		v, err := n.Eval(map[string]bool{"A": a, "B": b, "Cin": cin}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantCarry := FullAdderOutputs(a, b, cin)
		if v["S"] != wantSum || v["Cout"] != wantCarry {
			t.Errorf("full adder %v %v %v: got S=%v C=%v want S=%v C=%v",
				a, b, cin, v["S"], v["Cout"], wantSum, wantCarry)
		}
	}
}

func TestNetlistTruthTable(t *testing.T) {
	cases := []struct {
		name string
		n    *Netlist
		want func(a, b, c bool) bool
	}{
		{"in order", NewNetlist().
			AddGate(GateAnd, "G1", "n1", "A", "B").
			AddGate(GateOr, "G2", "F", "n1", "C"),
			func(a, b, c bool) bool { return a && b || c }},
		// Listed output first, so F settles on a later pass than n1.
		{"reversed", NewNetlist().
			AddGate(GateOr, "G2", "F", "n1", "C").
			AddGate(GateAnd, "G1", "n1", "A", "B"),
			func(a, b, c bool) bool { return a && b || c }},
		// n1 fans out to two levels; three passes settle the gates.
		{"reconvergent", NewNetlist().
			AddGate(GateNor, "G3", "F", "n2", "n1").
			AddGate(GateXor, "G2", "n2", "n1", "C").
			AddGate(GateNand, "G1", "n1", "A", "B"),
			func(a, b, c bool) bool { n1 := !(a && b); return !(n1 != c || n1) }},
	}
	for _, c := range cases {
		tt, err := c.n.TruthTable("F")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for m, got := range tt.Out {
			if want := c.want(m&4 != 0, m&2 != 0, m&1 != 0); got != want {
				t.Errorf("%s: row %d = %v, want %v:\n%s", c.name, m, got, want, tt.Format("F"))
			}
		}
	}
}

func TestNetlistDepth(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "n1", "A", "B").
		AddGate(GateOr, "G2", "n2", "n1", "C").
		AddGate(GateXor, "G3", "F", "n2", "n1")
	d, err := n.Depth("F")
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	if d, _ := n.Depth("A"); d != 0 {
		t.Errorf("input depth = %d, want 0", d)
	}
}

func TestNetlistCycleDetection(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "x", "y", "A").
		AddGate(GateOr, "G2", "y", "x", "B")
	if _, err := n.Eval(map[string]bool{"A": true, "B": true}, nil); err == nil {
		t.Error("combinational cycle not detected by Eval")
	}
	if _, err := n.Depth("x"); err == nil {
		t.Error("combinational cycle not detected by Depth")
	}
	if _, err := n.TruthTable("x"); err == nil {
		t.Error("combinational cycle not detected by TruthTable")
	}
}

func TestDFFCounter(t *testing.T) {
	// A 1-bit toggle: q <- q' every clock, built from a NOT gate and a
	// DFF.
	n := NewNetlist().
		AddGate(GateNot, "INV", "d", "q").
		AddDFF("q", "d")
	state := map[string]bool{"q": false}
	seq := []bool{}
	for i := 0; i < 4; i++ {
		next, err := n.Clock(nil, state)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, next["q"])
		state = next
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("toggle sequence %v, want %v", seq, want)
		}
	}
}

func TestPrimaryInputs(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "n1", "B", "A").
		AddGate(GateOr, "G2", "F", "n1", "C")
	ins := n.PrimaryInputs()
	want := []string{"A", "B", "C"}
	if len(ins) != len(want) {
		t.Fatalf("inputs %v, want %v", ins, want)
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Fatalf("inputs %v, want %v", ins, want)
		}
	}
}

func TestQuickNandNandEquivalence(t *testing.T) {
	// Property: the NAND-NAND construction implements the SOP it was
	// built from, for random minterm sets.
	vars := []string{"A", "B", "C"}
	f := func(raw uint8) bool {
		var minterms []int
		for m := 0; m < 8; m++ {
			if raw&(1<<m) != 0 {
				minterms = append(minterms, m)
			}
		}
		if len(minterms) == 0 || len(minterms) == 8 {
			return true // constant functions are not two-level circuits
		}
		sop := Minimize(vars, minterms, nil)
		if _, isConst := sop.(*Const); isConst {
			return true
		}
		n := nandNandNetlist(sop, vars)
		tt, err := n.TruthTable("F")
		if err != nil {
			return false
		}
		want := NewTruthTable(sop, tt.Vars)
		return tt.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTruthTableFormat(t *testing.T) {
	tt := FromMinterms([]string{"A", "B"}, []int{1, 2})
	s := tt.Format("F")
	if s == "" {
		t.Fatal("empty format")
	}
	if got := tt.Minterms(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("minterms %v", got)
	}
}

// Test-side netlist and truth-table helpers: the DFF builder and clock
// step drive Eval's state path, Format renders failures, Equal
// compares tables. No question generator uses them.

// AddDFF registers a D flip-flop with output q fed by net d.
func (n *Netlist) AddDFF(q, d string) *Netlist {
	n.DFFs[q] = d
	return n
}

// Clock settles the logic then advances every flip-flop, returning the
// next flop state.
func (n *Netlist) Clock(inputs, state map[string]bool) (map[string]bool, error) {
	values, err := n.Eval(inputs, state)
	if err != nil {
		return nil, err
	}
	next := make(map[string]bool, len(n.DFFs))
	for q, d := range n.DFFs {
		next[q] = values[d]
	}
	return next, nil
}

// Format renders the table as aligned text, one row per line, the way a
// textbook prints it.
func (t *TruthTable) Format(outName string) string {
	var sb strings.Builder
	for _, v := range t.Vars {
		sb.WriteString(fmt.Sprintf("%3s", v))
	}
	sb.WriteString(fmt.Sprintf(" |%3s\n", outName))
	for m := range t.Out {
		for i := range t.Vars {
			sb.WriteString(fmt.Sprintf("%3d", (m>>(len(t.Vars)-1-i))&1))
		}
		sb.WriteString(fmt.Sprintf(" |%3d\n", boolBit(t.Out[m])))
	}
	return sb.String()
}

// Equal reports whether two tables have identical variables and outputs.
func (t *TruthTable) Equal(o *TruthTable) bool {
	if len(t.Vars) != len(o.Vars) || len(t.Out) != len(o.Out) {
		return false
	}
	for i := range t.Vars {
		if t.Vars[i] != o.Vars[i] {
			return false
		}
	}
	for i := range t.Out {
		if t.Out[i] != o.Out[i] {
			return false
		}
	}
	return true
}
