package digital

import (
	"fmt"
	"slices"
	"sort"
)

// GateKind enumerates gate types of the netlist simulator.
type GateKind int

// Supported gate kinds.
const (
	GateAnd GateKind = iota
	GateOr
	GateNot
	GateNand
	GateNor
	GateXor
	GateXnor
	GateBuf
)

var gateNames = [...]string{"AND", "OR", "NOT", "NAND", "NOR", "XOR", "XNOR", "BUF"}

// String names the gate the way schematics label it.
func (k GateKind) String() string {
	if k < 0 || int(k) >= len(gateNames) {
		return fmt.Sprintf("GateKind(%d)", int(k))
	}
	return gateNames[k]
}

// Gate is one combinational gate: output net driven from input nets.
type Gate struct {
	Kind   GateKind
	Name   string
	Inputs []string
	Output string
}

// Eval computes the gate output from input values.
func (g *Gate) Eval(in []bool) bool {
	switch g.Kind {
	case GateAnd, GateNand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if g.Kind == GateNand {
			return !v
		}
		return v
	case GateOr, GateNor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if g.Kind == GateNor {
			return !v
		}
		return v
	case GateXor, GateXnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if g.Kind == GateXnor {
			return !v
		}
		return v
	case GateNot:
		return !in[0]
	case GateBuf:
		return in[0]
	default:
		return false
	}
}

// Netlist is a combinational circuit plus optional D flip-flops. Nets are
// named; primary inputs are nets no gate drives.
type Netlist struct {
	Gates []*Gate
	// DFFs maps flop output net -> D input net; flops break combinational
	// cycles and are stepped by Clock.
	DFFs map[string]string
}

// NewNetlist returns an empty netlist.
func NewNetlist() *Netlist {
	return &Netlist{DFFs: make(map[string]string)}
}

// AddGate appends a gate and returns the netlist for chaining.
func (n *Netlist) AddGate(kind GateKind, name, output string, inputs ...string) *Netlist {
	n.Gates = append(n.Gates, &Gate{Kind: kind, Name: name, Inputs: inputs, Output: output})
	return n
}

// PrimaryInputs lists nets that no gate or flop drives, sorted.
func (n *Netlist) PrimaryInputs() []string {
	driven := make(map[string]bool)
	for _, g := range n.Gates {
		driven[g.Output] = true
	}
	for q := range n.DFFs {
		driven[q] = true
	}
	seen := make(map[string]bool)
	var ins []string
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			if !driven[in] && !seen[in] {
				seen[in] = true
				ins = append(ins, in)
			}
		}
	}
	for _, d := range n.DFFs {
		if !driven[d] && !seen[d] {
			seen[d] = true
			ins = append(ins, d)
		}
	}
	sort.Strings(ins)
	return ins
}

// Eval settles the combinational logic for the given primary-input and
// flop-state values, returning every net's value. It iterates to a fixed
// point in topological fashion and reports an error on combinational
// cycles.
func (n *Netlist) Eval(inputs map[string]bool, state map[string]bool) (map[string]bool, error) {
	known := make([]string, 0, len(inputs)+len(n.DFFs))
	for k := range inputs {
		known = append(known, k)
	}
	for q := range n.DFFs {
		known = append(known, q)
	}
	sort.Strings(known)
	s, err := n.settle(known)
	if err != nil {
		return nil, err
	}
	vals := make([]bool, len(s.slot))
	for k, v := range inputs {
		vals[s.slot[k]] = v
	}
	for q := range n.DFFs {
		vals[s.slot[q]] = state[q]
	}
	s.replay(vals, nil)
	values := make(map[string]bool, len(s.slot))
	for name, i := range s.slot {
		values[name] = vals[i]
	}
	return values, nil
}

// settling is the order in which a netlist's gates settle from a set
// of known nets, on flat value slots. Which gates can settle on each
// pass depends only on which nets are known, never on their values, so
// one settling order serves every assignment of the known nets.
type settling struct {
	slot  map[string]int // net -> value slot; the known nets come first
	order []*Gate        // gates in the order they settle
	args  []int          // per gate in order: its input slots, then its output slot
}

// settle passes over the gates, settling each one whose inputs are all
// known, until every gate has settled; a pass that settles none means a
// combinational cycle or an undriven input.
func (n *Netlist) settle(known []string) (settling, error) {
	s := settling{
		slot:  make(map[string]int, len(known)+len(n.Gates)),
		order: make([]*Gate, 0, len(n.Gates)),
	}
	slotOf := func(net string) int {
		i, ok := s.slot[net]
		if !ok {
			i = len(s.slot)
			s.slot[net] = i
		}
		return i
	}
	for _, k := range known {
		slotOf(k)
	}
	ready := func(g *Gate) bool {
		for _, in := range g.Inputs {
			if _, ok := s.slot[in]; !ok {
				return false
			}
		}
		return true
	}
	remaining := slices.Clone(n.Gates)
	for len(remaining) > 0 {
		still := remaining[:0]
		for _, g := range remaining {
			if !ready(g) {
				still = append(still, g)
				continue
			}
			for _, in := range g.Inputs {
				s.args = append(s.args, s.slot[in])
			}
			s.args = append(s.args, slotOf(g.Output))
			s.order = append(s.order, g)
		}
		if len(still) == len(remaining) {
			return settling{}, fmt.Errorf("digital: combinational cycle or undriven input among %d gates", len(still))
		}
		remaining = still
	}
	return s, nil
}

// replay evaluates every gate in settling order into vals, whose known
// slots are already set. in is scratch for gate inputs; replay returns
// it for the next call.
func (s *settling) replay(vals, in []bool) []bool {
	a := s.args
	for _, g := range s.order {
		in = in[:0]
		for _, i := range a[:len(g.Inputs)] {
			in = append(in, vals[i])
		}
		vals[a[len(g.Inputs)]] = g.Eval(in)
		a = a[len(g.Inputs)+1:]
	}
	return in
}

// Depth returns the longest gate chain from any primary input or flop
// output to net target — the unit-delay critical path length.
func (n *Netlist) Depth(target string) (int, error) {
	return newDepthMemo(n).depth(target)
}

// depthMemo answers Depth queries over one netlist, remembering every
// net it settles, so asking for each gate's depth walks each net once.
// A query that meets a combinational cycle fails without memoising
// anything on its path, so every answer equals a fresh Depth call's.
type depthMemo struct {
	byOutput map[string]*Gate
	memo     map[string]int
	visiting map[string]bool
}

func newDepthMemo(n *Netlist) *depthMemo {
	d := &depthMemo{
		byOutput: make(map[string]*Gate, len(n.Gates)),
		memo:     make(map[string]int, len(n.Gates)),
		visiting: make(map[string]bool),
	}
	for _, g := range n.Gates {
		d.byOutput[g.Output] = g
	}
	return d
}

func (d *depthMemo) depth(net string) (int, error) {
	if v, ok := d.memo[net]; ok {
		return v, nil
	}
	g, ok := d.byOutput[net]
	if !ok {
		return 0, nil // primary input or flop output
	}
	if d.visiting[net] {
		return 0, fmt.Errorf("digital: combinational cycle through %s", net)
	}
	d.visiting[net] = true
	defer delete(d.visiting, net)
	maxIn := 0
	for _, in := range g.Inputs {
		v, err := d.depth(in)
		if err != nil {
			return 0, err
		}
		maxIn = max(maxIn, v)
	}
	d.memo[net] = maxIn + 1
	return maxIn + 1, nil
}

// TruthTable exhaustively simulates a purely combinational netlist and
// returns the truth table of the target net over the primary inputs.
// Every row replays one settling order from the primary inputs.
func (n *Netlist) TruthTable(target string) (*TruthTable, error) {
	if len(n.DFFs) > 0 {
		return nil, fmt.Errorf("digital: truth table requires a combinational netlist")
	}
	ins := n.PrimaryInputs()
	if len(ins) > 16 {
		return nil, fmt.Errorf("digital: too many inputs (%d) for exhaustive simulation", len(ins))
	}
	s, err := n.settle(ins)
	if err != nil {
		return nil, err
	}
	out, ok := s.slot[target]
	if !ok {
		return nil, fmt.Errorf("digital: net %q not driven", target)
	}
	t := &TruthTable{Vars: ins, Out: make([]bool, 1<<len(ins))}
	vals := make([]bool, len(s.slot))
	var in []bool
	for m := range t.Out {
		for i := range ins {
			vals[i] = m&(1<<(len(ins)-1-i)) != 0
		}
		in = s.replay(vals, in)
		t.Out[m] = vals[out]
	}
	return t, nil
}
