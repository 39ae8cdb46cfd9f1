package digital

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/visual"
)

// CircuitScene draws a netlist as a schematic: gates placed in columns by
// logic depth, wires between them, input labels on the left. Gates and
// their connectivity are the critical content of circuit-analysis
// questions.
func CircuitScene(n *Netlist, title string, criticalNets map[string]bool) *visual.Scene {
	ins := n.PrimaryInputs()
	var flopOuts []string
	for q := range n.DFFs {
		flopOuts = append(flopOuts, q)
	}
	sort.Strings(flopOuts)
	wires := 0
	for _, g := range n.Gates {
		wires += len(g.Inputs)
	}
	s := visual.NewScene(visual.KindSchematic, title).Grow(len(ins) + len(flopOuts) + len(n.Gates) + wires)

	// Column layout: inputs at depth 0.
	colX := func(d int) float64 { return 70 + float64(d)*130 }
	pos := make(map[string]visual.Point, len(ins)+len(flopOuts)+len(n.Gates)) // net -> source position
	for i, in := range ins {
		y := 80 + float64(i)*70
		pos[in] = visual.Point{X: colX(0), Y: y}
		s.Add(visual.Element{
			Type: visual.ElemLabel, Name: "in-" + in, Label: in,
			X: colX(0) - 30, Y: y - 6, Salience: 0.85,
		})
	}
	// Flop outputs also act as sources.
	for i, q := range flopOuts {
		y := 80 + float64(len(ins)+i)*70
		pos[q] = visual.Point{X: colX(0), Y: y}
		s.Add(visual.Element{
			Type: visual.ElemGate, Name: "ff-" + q, Label: "DFF",
			X: colX(0) - 50, Y: y - 15, Critical: criticalNets[q],
		})
	}

	// Gates go in the column of their depth, one row per gate.
	depths := newDepthMemo(n)
	rowInCol := make([]int, len(n.Gates)+1)
	gateAt := make([]visual.Point, len(n.Gates))
	for gi, g := range n.Gates {
		d, err := depths.depth(g.Output)
		if err != nil {
			d = 1
		}
		row := rowInCol[d]
		rowInCol[d]++
		x := colX(d)
		y := 70 + float64(row)*85
		gateAt[gi] = visual.Point{X: x, Y: y + 15}
		pos[g.Output] = visual.Point{X: x + 45, Y: y + 15}
		s.Add(visual.Element{
			Type: visual.ElemGate, Name: g.Name, Label: g.Kind.String(),
			X: x, Y: y, Critical: criticalNets == nil || criticalNets[g.Output],
		})
	}
	// Wires from each input source to each consuming gate.
	for gi, g := range n.Gates {
		to := gateAt[gi]
		for k, in := range g.Inputs {
			from, ok := pos[in]
			if !ok {
				continue
			}
			s.Add(visual.Element{
				Type: visual.ElemWire,
				Name: "w-" + in + "-" + g.Name + "-" + strconv.Itoa(k),
				X:    from.X, Y: from.Y,
				X2: to.X, Y2: to.Y + float64(k*8-8),
			})
		}
	}
	return s
}

// TruthTableScene draws a truth table; the output-column cells are the
// critical content.
func TruthTableScene(t *TruthTable, outName, title string) *visual.Scene {
	n := len(t.Vars)
	cols := n + 1
	s := visual.NewScene(visual.KindTable, title).Grow(cols * (len(t.Out) + 1))
	const cw, ch = 46, 24
	x0, y0 := 60.0, 50.0
	// Header row.
	for c := 0; c < cols; c++ {
		label := outName
		if c < n {
			label = t.Vars[c]
		}
		col := strconv.Itoa(c)
		s.Add(visual.Element{
			Type: visual.ElemCell, Name: "h" + col, Label: label,
			X: x0 + float64(c)*cw, Y: y0, X2: x0 + float64(c+1)*cw, Y2: y0 + ch,
			Attrs: visual.CellAttrs(-1, c), Salience: 0.9,
		})
	}
	for m, out := range t.Out {
		y := y0 + float64(m+1)*ch
		row := strconv.Itoa(m)
		for c := 0; c < n; c++ {
			col := strconv.Itoa(c)
			s.Add(visual.Element{
				Type: visual.ElemCell, Name: "c" + row + "-" + col,
				Label: strconv.Itoa((m >> (n - 1 - c)) & 1),
				X:     x0 + float64(c)*cw, Y: y, X2: x0 + float64(c+1)*cw, Y2: y + ch,
				Attrs: visual.CellAttrs(m, c),
			})
		}
		s.Add(visual.Element{
			Type: visual.ElemCell, Name: "out" + row,
			Label: strconv.Itoa(boolBit(out)),
			X:     x0 + float64(cols-1)*cw, Y: y, X2: x0 + float64(cols)*cw, Y2: y + ch,
			Attrs:    visual.CellAttrs(m, -1),
			Salience: 0.7, Critical: true,
		})
	}
	s.Height = int(y0) + (len(t.Out)+2)*ch + 40
	return s
}

// RegisterScene draws an n-bit register with its bit values annotated —
// used by data-representation questions where the bits are the critical
// content.
func RegisterScene(word, bits int, title string) *visual.Scene {
	s := visual.NewScene(visual.KindDiagram, title).Grow(2 * bits)
	const cw, ch = 40, 40
	x0, y0 := 80.0, 120.0
	for i := 0; i < bits; i++ {
		bit := (word >> (bits - 1 - i)) & 1
		col := strconv.Itoa(i)
		s.Add(visual.Element{
			Type: visual.ElemCell, Name: "bit" + col,
			Label: strconv.Itoa(bit),
			X:     x0 + float64(i)*cw, Y: y0, X2: x0 + float64(i+1)*cw, Y2: y0 + ch,
			Attrs:    visual.CellAttrs(0, i),
			Salience: 0.75, Critical: true,
		})
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: "idx" + col,
			Label: strconv.Itoa(bits - 1 - i),
			X:     x0 + float64(i)*cw + 14, Y: y0 - 16,
		})
	}
	return s
}

// BlockChainScene draws a left-to-right chain of labelled blocks joined
// by arrows (shift registers, simple datapaths).
func BlockChainScene(labels []string, title string, critical bool) *visual.Scene {
	s := visual.NewScene(visual.KindDiagram, title).Grow(2 * len(labels))
	const bw, bh = 80, 46
	x0, y0 := 50.0, 150.0
	for i, l := range labels {
		x := x0 + float64(i)*(bw+40)
		s.Add(visual.Element{
			Type: visual.ElemBox, Name: "blk" + strconv.Itoa(i), Label: l,
			X: x, Y: y0, X2: x + bw, Y2: y0 + bh, Critical: critical,
		})
		if i > 0 {
			s.Add(visual.Element{
				Type: visual.ElemArrow, Name: "ar" + strconv.Itoa(i),
				X: x - 40, Y: y0 + bh/2, X2: x, Y2: y0 + bh/2,
			})
		}
	}
	return s
}

// EquationsScene draws a list of equations as text; each line is
// critical.
func EquationsScene(lines []string, title string) *visual.Scene {
	s := visual.NewScene(visual.KindEquations, title).Grow(len(lines))
	for i, l := range lines {
		s.Add(visual.Element{
			Type: visual.ElemEquationText, Name: "eq" + strconv.Itoa(i), Label: l,
			X: 60, Y: 80 + float64(i)*50, Salience: 0.8, Critical: true,
		})
	}
	return s
}

// PerceptronScene draws a single-layer perceptron: input nodes, weighted
// edges and a threshold unit. Weights and threshold are the critical
// annotations.
func PerceptronScene(weights []float64, threshold float64, title string) *visual.Scene {
	s := visual.NewScene(visual.KindNeuralNets, title)
	outX, outY := 420.0, 200.0
	s.Add(visual.Element{
		Type: visual.ElemBox, Name: "unit", Label: fmt.Sprintf("sum >= %.1f", threshold),
		X: outX, Y: outY - 30, X2: outX + 120, Y2: outY + 30,
		Salience: 0.8, Critical: true,
	})
	for i, w := range weights {
		y := 100 + float64(i)*120
		s.Add(visual.Element{
			Type: visual.ElemBox, Name: fmt.Sprintf("x%d", i), Label: fmt.Sprintf("x%d", i+1),
			X: 80, Y: y - 20, X2: 140, Y2: y + 20,
		})
		s.Add(visual.Element{
			Type: visual.ElemArrow, Name: fmt.Sprintf("w%d", i),
			Label: fmt.Sprintf("w=%.1f", w),
			X:     140, Y: y, X2: outX, Y2: outY,
			Salience: 0.7, Critical: true,
		})
	}
	s.Add(visual.Element{
		Type: visual.ElemArrow, Name: "out", X: outX + 120, Y: outY, X2: outX + 180, Y2: outY,
		Label: "y",
	})
	return s
}
