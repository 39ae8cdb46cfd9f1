package digital

import (
	"fmt"
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
	values := make(map[string]bool, len(inputs)+len(state)+len(n.Gates))
	known := make(map[string]bool, len(values))
	for k, v := range inputs {
		values[k] = v
		known[k] = true
	}
	for q := range n.DFFs {
		values[q] = state[q]
		known[q] = true
	}
	remaining := make([]*Gate, len(n.Gates))
	copy(remaining, n.Gates)
	for len(remaining) > 0 {
		progressed := false
		var still []*Gate
		for _, g := range remaining {
			ready := true
			in := make([]bool, len(g.Inputs))
			for i, name := range g.Inputs {
				if !known[name] {
					ready = false
					break
				}
				in[i] = values[name]
			}
			if !ready {
				still = append(still, g)
				continue
			}
			values[g.Output] = g.Eval(in)
			known[g.Output] = true
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("digital: combinational cycle or undriven input among %d gates", len(still))
		}
		remaining = still
	}
	return values, nil
}

// Depth returns the longest gate chain from any primary input or flop
// output to net target — the unit-delay critical path length.
func (n *Netlist) Depth(target string) (int, error) {
	byOutput := make(map[string]*Gate, len(n.Gates))
	for _, g := range n.Gates {
		byOutput[g.Output] = g
	}
	memo := make(map[string]int)
	visiting := make(map[string]bool)
	var depth func(net string) (int, error)
	depth = func(net string) (int, error) {
		if d, ok := memo[net]; ok {
			return d, nil
		}
		g, ok := byOutput[net]
		if !ok {
			return 0, nil // primary input or flop output
		}
		if visiting[net] {
			return 0, fmt.Errorf("digital: combinational cycle through %s", net)
		}
		visiting[net] = true
		defer delete(visiting, net)
		maxIn := 0
		for _, in := range g.Inputs {
			d, err := depth(in)
			if err != nil {
				return 0, err
			}
			if d > maxIn {
				maxIn = d
			}
		}
		memo[net] = maxIn + 1
		return maxIn + 1, nil
	}
	return depth(target)
}

// TruthTable exhaustively simulates a purely combinational netlist and
// returns the truth table of the target net over the primary inputs.
func (n *Netlist) TruthTable(target string) (*TruthTable, error) {
	if len(n.DFFs) > 0 {
		return nil, fmt.Errorf("digital: truth table requires a combinational netlist")
	}
	ins := n.PrimaryInputs()
	if len(ins) > 16 {
		return nil, fmt.Errorf("digital: too many inputs (%d) for exhaustive simulation", len(ins))
	}
	t := &TruthTable{Vars: ins, Out: make([]bool, 1<<len(ins))}
	for m := 0; m < 1<<len(ins); m++ {
		assign := make(map[string]bool, len(ins))
		for i, v := range ins {
			assign[v] = m&(1<<(len(ins)-1-i)) != 0
		}
		values, err := n.Eval(assign, nil)
		if err != nil {
			return nil, err
		}
		out, ok := values[target]
		if !ok {
			return nil, fmt.Errorf("digital: net %q not driven", target)
		}
		t.Out[m] = out
	}
	return t, nil
}
