// Package analog implements the analog-design substrate: a complex-valued
// modified-nodal-analysis (MNA) circuit solver with controlled sources, a
// rational transfer-function engine (poles, zeros, Bode data, phase
// margin), small-signal MOSFET helpers and feedback analysis. The Analog
// Design questions of the benchmark are generated from these engines.
package analog

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Ground is the reference node name.
const Ground = "0"

// ElementKind enumerates circuit element types.
type ElementKind int

// Circuit element kinds.
const (
	KindResistor ElementKind = iota
	KindCapacitor
	KindInductor
	KindVSource // independent voltage source (AC value)
	KindISource // independent current source (AC value)
	KindVCVS    // voltage-controlled voltage source (E element)
	KindVCCS    // voltage-controlled current source (G element, e.g. MOSFET gm)
)

// Element is a two-terminal (or four-terminal controlled) element.
type Element struct {
	Kind  ElementKind
	Name  string
	Plus  string // positive terminal node
	Minus string
	// Value: ohms, farads, henries, volts, amps, or gain/transconductance.
	Value float64
	// Control nodes for VCVS/VCCS.
	CtrlPlus, CtrlMinus string
}

// Circuit is a linear(ised) circuit described by a list of elements.
type Circuit struct {
	Elements []Element
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return &Circuit{} }

// R adds a resistor between two nodes.
func (c *Circuit) R(name, plus, minus string, ohms float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindResistor, Name: name, Plus: plus, Minus: minus, Value: ohms})
	return c
}

// C adds a capacitor.
func (c *Circuit) C(name, plus, minus string, farads float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindCapacitor, Name: name, Plus: plus, Minus: minus, Value: farads})
	return c
}

// V adds an independent voltage source (value in volts, AC magnitude).
func (c *Circuit) V(name, plus, minus string, volts float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindVSource, Name: name, Plus: plus, Minus: minus, Value: volts})
	return c
}

// I adds an independent current source that injects Value amps into the
// Plus node (and draws them out of the Minus node), i.e. the current
// flows from Minus to Plus inside the source.
func (c *Circuit) I(name, plus, minus string, amps float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindISource, Name: name, Plus: plus, Minus: minus, Value: amps})
	return c
}

// VCCS adds a voltage-controlled current source (transconductance gm in
// siemens); current Value*(Vctrl) flows from Plus to Minus inside the
// source.
func (c *Circuit) VCCS(name, plus, minus, ctrlPlus, ctrlMinus string, gm float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindVCCS, Name: name, Plus: plus, Minus: minus,
		CtrlPlus: ctrlPlus, CtrlMinus: ctrlMinus, Value: gm})
	return c
}

// Nodes returns the sorted non-ground node names.
func (c *Circuit) Nodes() []string {
	set := make(map[string]bool)
	for _, e := range c.Elements {
		for _, n := range []string{e.Plus, e.Minus, e.CtrlPlus, e.CtrlMinus} {
			if n != "" && n != Ground {
				set[n] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Solution holds node voltages (complex phasors) of a solved circuit.
type Solution struct {
	Voltages map[string]complex128
	// BranchCurrents holds the currents through voltage-source-like
	// elements (V, VCVS, L), keyed by element name, flowing from Plus to
	// Minus through the element.
	BranchCurrents map[string]complex128
}

// VoltageAt returns the phasor voltage of a node (ground is 0).
func (s *Solution) VoltageAt(node string) complex128 {
	if node == Ground {
		return 0
	}
	return s.Voltages[node]
}

// Vdiff returns V(plus) - V(minus).
func (s *Solution) Vdiff(plus, minus string) complex128 {
	return s.VoltageAt(plus) - s.VoltageAt(minus)
}

// SolveAC solves the circuit at angular frequency omega (rad/s) using
// modified nodal analysis. omega = 0 gives the DC operating point of the
// linear circuit (capacitors open, inductors short).
func (c *Circuit) SolveAC(omega float64) (*Solution, error) {
	nodes := c.Nodes()
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	// Extra unknowns: branch currents of V, VCVS and L elements.
	var branches []int // indices into c.Elements
	for i, e := range c.Elements {
		if e.Kind == KindVSource || e.Kind == KindVCVS || e.Kind == KindInductor {
			branches = append(branches, i)
		}
	}
	n := len(nodes)
	m := len(branches)
	size := n + m
	if size == 0 {
		return &Solution{Voltages: map[string]complex128{}, BranchCurrents: map[string]complex128{}}, nil
	}
	A := make([][]complex128, size)
	cells := make([]complex128, size*(size+1)) // augmented rows, one backing array
	for i := range A {
		A[i] = cells[i*(size+1) : (i+1)*(size+1) : (i+1)*(size+1)]
	}
	at := func(node string) int {
		if node == Ground {
			return -1
		}
		return index[node]
	}
	stampAdmittance := func(p, q int, y complex128) {
		if p >= 0 {
			A[p][p] += y
		}
		if q >= 0 {
			A[q][q] += y
		}
		if p >= 0 && q >= 0 {
			A[p][q] -= y
			A[q][p] -= y
		}
	}
	s := complex(0, omega)
	branchIdx := make(map[int]int, m) // element index -> row/col offset
	for bi, ei := range branches {
		branchIdx[ei] = n + bi
	}
	for ei, e := range c.Elements {
		p, q := at(e.Plus), at(e.Minus)
		switch e.Kind {
		case KindResistor:
			if e.Value == 0 {
				return nil, fmt.Errorf("analog: resistor %s has zero resistance", e.Name)
			}
			stampAdmittance(p, q, complex(1/e.Value, 0))
		case KindCapacitor:
			stampAdmittance(p, q, s*complex(e.Value, 0))
		case KindISource:
			// Injects into Plus, draws from Minus.
			if p >= 0 {
				A[p][size] += complex(e.Value, 0)
			}
			if q >= 0 {
				A[q][size] -= complex(e.Value, 0)
			}
		case KindVSource:
			b := branchIdx[ei]
			if p >= 0 {
				A[p][b] += 1
				A[b][p] += 1
			}
			if q >= 0 {
				A[q][b] -= 1
				A[b][q] -= 1
			}
			A[b][size] += complex(e.Value, 0)
		case KindInductor:
			b := branchIdx[ei]
			if p >= 0 {
				A[p][b] += 1
				A[b][p] += 1
			}
			if q >= 0 {
				A[q][b] -= 1
				A[b][q] -= 1
			}
			A[b][b] -= s * complex(e.Value, 0)
		case KindVCVS:
			b := branchIdx[ei]
			cp, cq := at(e.CtrlPlus), at(e.CtrlMinus)
			if p >= 0 {
				A[p][b] += 1
				A[b][p] += 1
			}
			if q >= 0 {
				A[q][b] -= 1
				A[b][q] -= 1
			}
			if cp >= 0 {
				A[b][cp] -= complex(e.Value, 0)
			}
			if cq >= 0 {
				A[b][cq] += complex(e.Value, 0)
			}
		case KindVCCS:
			cp, cq := at(e.CtrlPlus), at(e.CtrlMinus)
			g := complex(e.Value, 0)
			if p >= 0 && cp >= 0 {
				A[p][cp] += g
			}
			if p >= 0 && cq >= 0 {
				A[p][cq] -= g
			}
			if q >= 0 && cp >= 0 {
				A[q][cp] -= g
			}
			if q >= 0 && cq >= 0 {
				A[q][cq] += g
			}
		}
	}
	x, err := solveComplex(A)
	if err != nil {
		return nil, fmt.Errorf("analog: %w", err)
	}
	sol := &Solution{
		Voltages:       make(map[string]complex128, n),
		BranchCurrents: make(map[string]complex128, m),
	}
	for i, node := range nodes {
		sol.Voltages[node] = x[i]
	}
	for bi, ei := range branches {
		sol.BranchCurrents[c.Elements[ei].Name] = x[n+bi]
	}
	return sol, nil
}

// SolveDC solves the circuit at omega = 0.
func (c *Circuit) SolveDC() (*Solution, error) { return c.SolveAC(0) }

// Transfer computes the voltage transfer V(out)/V(in-source value) over a
// frequency sweep, returning one complex gain per omega. The source is
// the named independent voltage source; its value is used as reference.
func (c *Circuit) Transfer(sourceName, outNode string, omegas []float64) ([]complex128, error) {
	var src *Element
	for i := range c.Elements {
		if c.Elements[i].Name == sourceName {
			src = &c.Elements[i]
			break
		}
	}
	if src == nil || src.Kind != KindVSource {
		return nil, fmt.Errorf("analog: no voltage source named %q", sourceName)
	}
	if src.Value == 0 {
		return nil, fmt.Errorf("analog: source %q has zero amplitude", sourceName)
	}
	out := make([]complex128, len(omegas))
	for i, w := range omegas {
		sol, err := c.SolveAC(w)
		if err != nil {
			return nil, err
		}
		out[i] = sol.VoltageAt(outNode) / complex(src.Value, 0)
	}
	return out, nil
}

// solveComplex performs Gaussian elimination with partial pivoting on an
// augmented complex matrix (n rows, n+1 columns).
func solveComplex(a [][]complex128) ([]complex128, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		best := col
		bestMag := cmplx.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if m := cmplx.Abs(a[r][col]); m > bestMag {
				best, bestMag = r, m
			}
		}
		if bestMag < 1e-15 {
			return nil, fmt.Errorf("singular system at column %d (floating node or source loop?)", col)
		}
		a[col], a[best] = a[best], a[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	// Back substitution.
	x := make([]complex128, n)
	for r := n - 1; r >= 0; r-- {
		sum := a[r][n]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// ParallelR returns the parallel combination of resistances.
func ParallelR(rs ...float64) float64 {
	g := 0.0
	for _, r := range rs {
		if r <= 0 {
			return 0
		}
		g += 1 / r
	}
	if g == 0 {
		return math.Inf(1)
	}
	return 1 / g
}

// SeriesR returns the series combination of resistances.
func SeriesR(rs ...float64) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += r
	}
	return sum
}

// EquivalentResistance computes the resistance seen between two nodes of
// a resistive circuit by injecting a 1 A test current and measuring the
// resulting voltage.
func (c *Circuit) EquivalentResistance(plus, minus string) (float64, error) {
	test := &Circuit{Elements: append([]Element{}, c.Elements...)}
	test.I("Itest", plus, minus, 1)
	sol, err := test.SolveDC()
	if err != nil {
		return 0, err
	}
	v := sol.Vdiff(plus, minus)
	return real(v), nil
}
