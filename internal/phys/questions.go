package phys

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// Generate produces the 23 Physical Design questions (7 multiple choice,
// 16 short answer, per Table I): 12 layouts, 5 diagrams, 2 flow charts,
// 2 schematics and 2 mixed figures. Golden answers come from the
// routing, timing, placement and floorplanning engines in this package.
func Generate() []*dataset.Question {
	var qs []*dataset.Question
	add := func(q *dataset.Question) { qs = append(qs, q) }

	// --- Layouts (p01..p12) ---------------------------------------------

	// Shared routing instance for p01/p02: the paper's own example ("can
	// you calculate the routing costs for the 2 diagrams and determine
	// which routing topology has lower cost?").
	terminals := []Pt{{1, 1}, {7, 2}, {3, 6}, {6, 7}}
	_, _, steinerLen := SteinerTree(terminals)
	starHub := Pt{4, 4}
	starLen := StarCost(terminals, starHub)
	{
		scene := routingScene("Steiner topology with annotated terminals", terminals, true)
		add(dataset.NewSANumber("p01", dataset.Physical, "steiner-cost",
			fmt.Sprintf("The routing points' coordinates are shown in the figure: %s. "+
				"What is the total rectilinear wirelength of the optimal Steiner-tree topology "+
				"connecting them (in grid units)?", FormatPts(terminals)),
			scene, float64(steinerLen), "units", 0, 0.75))
	}
	{
		scene := routingScene("Two candidate topologies: Steiner tree vs star", terminals, true)
		scene.Add(visual.Element{
			Type: visual.ElemPoint, Name: "hub", Label: fmt.Sprintf("star hub (%d,%d)", starHub.X, starHub.Y),
			X: 300, Y: 240, Salience: 0.7, Critical: true,
		})
		lower := "the Steiner-tree topology"
		if starLen < steinerLen {
			lower = "the star topology"
		}
		add(dataset.NewSAPhrase("p02", dataset.Physical, "topology-compare",
			fmt.Sprintf("The routing points' coordinates are shown in the figure: %s. "+
				"Comparing a rectilinear Steiner tree against a star routed through the hub at "+
				"(%d,%d), which routing topology has lower total cost?",
				FormatPts(terminals), starHub.X, starHub.Y),
			scene, lower,
			[]string{"steiner", "steiner tree", "the steiner topology", "rectilinear steiner tree"},
			0.7))
	}
	// p03: HPWL.
	{
		net := []Pt{{2, 3}, {9, 1}, {5, 8}, {11, 6}}
		w := HPWL(net)
		scene := routingScene("Net bounding box", net, true)
		add(dataset.NewSANumber("p03", dataset.Physical, "hpwl",
			fmt.Sprintf("A net connects the pins at %s as drawn in the figure. What is its "+
				"half-perimeter wirelength (HPWL) estimate in grid units?", FormatPts(net)),
			scene, float64(w), "units", 0, 0.5))
	}
	// p04: RMST length (MC).
	{
		pts := []Pt{{0, 0}, {4, 1}, {2, 5}}
		_, l := RMST(pts)
		scene := routingScene("Three-terminal net", pts, true)
		add(dataset.NewMCNumeric("p04", dataset.Physical, "rmst",
			fmt.Sprintf("For the three pins at %s shown in the figure, what is the total "+
				"wirelength of the rectilinear minimum spanning tree?", FormatPts(pts)),
			scene, float64(l), "units", 0,
			fmt.Sprintf("%d units", l),
			[3]string{fmt.Sprintf("%d units", l-2), fmt.Sprintf("%d units", l+2),
				fmt.Sprintf("%d units", l+4)}, 0.55))
	}
	// p05: maze route with obstacle.
	{
		g := NewGrid(10, 10)
		g.BlockRect(3, 2, 4, 7)
		src, dst := Pt{1, 4}, Pt{8, 4}
		length, err := g.RouteLength(src, dst)
		if err != nil {
			panic(err)
		}
		scene := mazeScene(g, src, dst)
		add(dataset.NewSANumber("p05", dataset.Physical, "maze-route",
			"The routing grid in the figure contains a blockage (shaded). Using shortest-"+
				"path maze routing, how many grid edges long is the route from SRC to DST?",
			scene, float64(length), "edges", 0, 0.65))
	}
	// Shared DRC instance for p06/p07.
	shapes := []Rect{
		{Name: "M1a", Layer: "metal1", X0: 0, Y0: 0, X1: 4, Y1: 20},
		{Name: "M1b", Layer: "metal1", X0: 6, Y0: 0, X1: 10, Y1: 20},
		{Name: "M1c", Layer: "metal1", X0: 11, Y0: 0, X1: 14, Y1: 20},
		{Name: "M1d", Layer: "metal1", X0: 20, Y0: 0, X1: 22, Y1: 8},
	}
	rules := map[string]DRCRule{"metal1": {MinWidth: 3, MinSpacing: 2}}
	violations := CheckDRC(shapes, rules)
	{
		scene := layoutScene("Metal1 shapes with DRC rules", shapes,
			[]string{"min width: 3", "min spacing: 2"})
		add(dataset.NewMCNumeric("p06", dataset.Physical, "drc-count",
			"The metal1 shapes in the figure must satisfy the minimum width and spacing "+
				"rules annotated. How many DRC violations does the layout contain?",
			scene, float64(len(violations)), "violations", 0,
			fmt.Sprintf("%d violations", len(violations)),
			[3]string{"0 violations", fmt.Sprintf("%d violations", len(violations)+1),
				fmt.Sprintf("%d violations", len(violations)+2)}, 0.7))
	}
	{
		sp := Spacing(shapes[1], shapes[2])
		scene := layoutScene("Metal1 shapes", shapes[1:3], nil)
		add(dataset.NewSANumber("p07", dataset.Physical, "spacing",
			"Measure the layout in the figure: what is the edge-to-edge spacing between the "+
				"two metal1 shapes, in grid units?",
			scene, float64(sp), "units", 0, 0.5))
	}
	// p08: legalisation displacement.
	{
		cells := []Cell{
			{Name: "A", X: 0, Width: 3},
			{Name: "B", X: 2, Width: 3},
			{Name: "C", X: 4, Width: 3},
		}
		_, disp, err := LegalizeRow(cells, 12)
		if err != nil {
			panic(err)
		}
		scene := rowScene("Overlapping global placement in one row", cells)
		add(dataset.NewSANumber("p08", dataset.Physical, "legalize",
			"The three cells in the figure (widths 3) overlap after global placement at "+
				"the desired x positions annotated. Legalising left-to-right with minimum "+
				"left-shift/right-shift (Tetris style) in a row of width 12, what total "+
				"displacement in x is required?",
			scene, disp, "units", 0, 0.75))
	}
	// p09: row utilisation (MC).
	{
		cells := []Cell{{Name: "A", X: 0, Width: 4}, {Name: "B", X: 5, Width: 6}, {Name: "C", X: 12, Width: 5}}
		u := RowUtilization(cells, 20) * 100
		scene := rowScene("Placed row", cells)
		add(dataset.NewMCNumeric("p09", dataset.Physical, "utilization",
			"The placement row in the figure is 20 units wide and holds cells of widths "+
				"4, 6 and 5. What is the row utilisation?",
			scene, u, "%", 0.01,
			fmt.Sprintf("%.0f%%", u),
			[3]string{"50%", "85%", "60%"}, 0.45))
	}
	// p10: pin access tracks.
	{
		tracks := PinAccessTracks(9, 1)
		scene := layoutScene("Standard cell track template",
			[]Rect{
				{Name: "VDD", Layer: "metal1", X0: 0, Y0: 0, X1: 30, Y1: 2},
				{Name: "VSS", Layer: "metal1", X0: 0, Y0: 16, X1: 30, Y1: 18},
			},
			[]string{"cell height: 9 tracks", "power rails: 1 track each"})
		add(dataset.NewSANumber("p10", dataset.Physical, "pin-access",
			"The 9-track standard cell in the figure dedicates one track each to the VDD "+
				"and VSS rails. How many routing tracks remain available for signal pin access?",
			scene, float64(tracks), "tracks", 0, 0.55))
	}
	// p11: IR drop along a power rail.
	{
		// Three taps drawing 10 mA each along a rail with 0.05 ohm
		// per segment: drop at far end = sum over segments of
		// (current through segment * R).
		segR := 0.05
		taps := []float64{0.010, 0.010, 0.010}
		drop := 0.0
		for i := range taps {
			through := 0.0
			for j := i; j < len(taps); j++ {
				through += taps[j]
			}
			drop += through * segR
		}
		dropMV := drop * 1000
		scene := layoutScene("Power rail with three current taps",
			[]Rect{{Name: "VDD rail", Layer: "metal2", X0: 0, Y0: 8, X1: 40, Y1: 10}},
			[]string{"segment resistance: 0.05 Ohm", "each tap draws 10 mA", "3 taps, evenly spaced"})
		add(dataset.NewSANumber("p11", dataset.Physical, "ir-drop",
			"The power rail in the figure feeds three taps, each drawing the current "+
				"annotated, through segments of equal resistance. What is the IR drop at the "+
				"farthest tap, in mV?",
			scene, dropMV, "mV", 0.02, 0.8))
	}
	// p12: layout layer recognition (MC).
	{
		scene := layoutScene("Standard cell detail",
			[]Rect{
				{Name: "diff", Layer: "diffusion", X0: 4, Y0: 6, X1: 26, Y1: 12},
				{Name: "gate", Layer: "poly", X0: 13, Y0: 2, X1: 16, Y1: 16},
			},
			[]string{"the polysilicon strip crosses the diffusion region"})
		add(dataset.NewMC("p12", dataset.Physical, "layer-recognition",
			"In the standard-cell layout of the figure, a polysilicon strip crosses a "+
				"diffusion region. What device does this intersection form?",
			scene, "a MOSFET transistor (the poly over diffusion is its gate)",
			[3]string{"a metal-insulator-metal capacitor", "a well tap (substrate contact)",
				"a poly resistor"}, 0.5))
	}

	// --- Diagrams (p13..p17) -----------------------------------------------

	// p13: H-tree wirelength.
	{
		h := HTree{Levels: 4, DieSize: 1000}
		wl := h.WireLength()
		scene := visual.NewBlockDiagram(visual.KindDiagram, "H-tree clock network",
			[]string{"ROOT", "H1", "H2"},
			[]string{"levels: 4", "die size: 1000 um"})
		add(dataset.NewSANumber("p13", dataset.Physical, "htree-wl",
			"The 4-level H-tree in the figure distributes the clock over a 1000 um square "+
				"die; each level's segment lengths follow the standard halving pattern (level 1 "+
				"spans half the die). What is the total clock wirelength in um?",
			scene, wl, "um", 0.02, 0.8))
	}
	// p14: clock skew from arrivals.
	{
		arrivals := []float64{120, 135, 128, 142}
		skew := ClockSkew(arrivals)
		scene := visual.NewTableScene(visual.KindDiagram, "Clock sink arrival times",
			[]string{"sink", "arrival (ps)"},
			[][]string{{"FF1", "120"}, {"FF2", "135"}, {"FF3", "128"}, {"FF4", "142"}},
			map[int]bool{1: true})
		add(dataset.NewSANumber("p14", dataset.Physical, "clock-skew",
			"The clock tree in the figure delivers the clock to four flops with the "+
				"arrival times annotated. What is the clock skew (max minus min arrival), in ps?",
			scene, skew, "ps", 0, 0.45))
	}
	// p15: Elmore delay.
	{
		r := []float64{0.1, 0.1} // kOhm
		c := []float64{20, 10}   // fF
		d := ElmoreDelay(r, c)   // kOhm * fF = ps
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Two-segment RC interconnect",
			[]string{"DRV", "R1-C1", "R2-C2"},
			[]string{"R1=R2=100 Ohm", "C1=20 fF", "C2=10 fF"})
		add(dataset.NewSANumber("p15", dataset.Physical, "elmore",
			"The two-segment RC ladder in the figure models a wire. Using the Elmore "+
				"delay model, what is the delay from driver to the far end, in ps?",
			scene, d, "ps", 0.02, 0.75))
	}
	// p16: useful skew (MC).
	{
		before, after, _ := UsefulSkew(8, 4)
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Two-stage timing path",
			[]string{"FF1", "LOGIC 8ns", "FF2", "LOGIC 4ns", "FF3"},
			[]string{"stage delays: 8 ns and 4 ns", "skew may be applied to FF2"})
		add(dataset.NewMCNumeric("p16", dataset.Physical, "useful-skew",
			fmt.Sprintf("The pipeline in the figure has stage delays of 8 ns and 4 ns, so the "+
				"unskewed minimum period is %.0f ns. Applying useful skew to the middle flop, "+
				"what is the best achievable clock period?", before),
			scene, after, "ns", 0.02,
			fmt.Sprintf("%.0f ns", after),
			[3]string{"8 ns", "4 ns", "12 ns"}, 0.7))
	}
	// p17: STA critical path.
	{
		g := NewTimingGraph()
		g.AddArc("in", "u1", 2).AddArc("u1", "u2", 3).AddArc("u2", "out", 2)
		g.AddArc("in", "u3", 1).AddArc("u3", "out", 3)
		d, err := g.CriticalDelay()
		if err != nil {
			panic(err)
		}
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Timing graph",
			[]string{"IN", "U1", "U2", "OUT"},
			[]string{"arcs: in-u1 2ns, u1-u2 3ns, u2-out 2ns", "side path: in-u3 1ns, u3-out 3ns"})
		add(dataset.NewSANumber("p17", dataset.Physical, "sta-critical",
			"The timing graph in the figure annotates every arc with its delay. What is "+
				"the critical (longest) path delay from IN to OUT, in ns?",
			scene, d, "ns", 0, 0.6))
	}

	// --- Flow charts (p18, p19) ----------------------------------------------

	// p18: flow ordering (MC).
	{
		scene := visual.NewBlockDiagram(visual.KindFlow, "Physical design flow",
			[]string{"FLOORPLAN", "PLACEMENT", "?", "ROUTING", "SIGNOFF"},
			[]string{"the boxed step builds the clock network before routing"})
		add(dataset.NewMC("p18", dataset.Physical, "flow-order",
			"In the standard physical-design flow chart of the figure, which step fills the "+
				"box between placement and routing?",
			scene, "clock tree synthesis",
			[3]string{"logic synthesis", "static timing signoff", "mask data preparation"}, 0.45))
	}
	// p19: flow stage identification.
	{
		scene := visual.NewBlockDiagram(visual.KindFlow, "Timing closure loop",
			[]string{"CTS", "ROUTE", "STA", "FIX"},
			[]string{"the FIX step inserts delay cells on short paths"})
		add(dataset.NewSAPhrase("p19", dataset.Physical, "hold-fixing",
			"The timing-closure loop in the figure ends with a step that inserts delay "+
				"cells and buffers on paths that are too fast. Which class of timing violation "+
				"does this step fix?",
			scene, "hold violations",
			[]string{"hold", "hold time", "hold time violations", "min-delay violations"}, 0.6))
	}

	// --- Schematics (p20, p21) ------------------------------------------------

	// p20: optimal buffering.
	{
		k, _ := OptimalBufferCount(1000, 1000e-15*1e12, 20, 8)
		// Units: R=1000 Ohm, C=1 pF expressed in ps-friendly units
		// (Ohm * pF = ps), per-buffer delay 20 ps.
		scene := visual.NewBlockDiagram(visual.KindSchematic, "Long wire with repeaters",
			[]string{"DRV", "WIRE", "RCV"},
			[]string{"wire: R=1 kOhm, C=1 pF", "buffer delay: 20 ps", "buffers split the wire evenly"})
		add(dataset.NewSANumber("p20", dataset.Physical, "buffering",
			"A 1 kOhm / 1 pF wire in the figure may be split by identical repeaters with "+
				"20 ps intrinsic delay each; wire delay per segment follows the quadratic RC "+
				"model 0.5*R_seg*C_seg. How many repeaters minimise total delay (search 0 to 8)?",
			scene, float64(k), "buffers", 0, 0.85))
	}
	// p21: slicing floorplan area (MC).
	{
		blocks := map[string]Block{
			"A": {Name: "A", W: 4, H: 6},
			"B": {Name: "B", W: 4, H: 4},
			"C": {Name: "C", W: 6, H: 8},
		}
		tree, err := ParsePolish([]string{"A", "B", "H", "C", "V"}, blocks)
		if err != nil {
			panic(err)
		}
		area := tree.Area()
		scene := visual.NewBlockDiagram(visual.KindSchematic, "Slicing floorplan",
			[]string{"A 4x6", "B 4x4", "C 6x8"},
			[]string{"polish expression: A B H C V", "H stacks vertically, V abuts horizontally"})
		add(dataset.NewMCNumeric("p21", dataset.Physical, "slicing-area",
			"The slicing floorplan in the figure combines blocks A (4x6), B (4x4) and C "+
				"(6x8) by the Polish expression A B H C V. What is the area of the resulting "+
				"bounding box?",
			scene, area, "sq units", 0.01,
			fmt.Sprintf("%.0f sq units", area),
			[3]string{"88 sq units", "120 sq units", "64 sq units"}, 0.75))
	}

	// --- Mixed (p22, p23) ---------------------------------------------------

	// p22: slack at a node.
	{
		g := NewTimingGraph()
		g.AddArc("ff1", "g1", 3).AddArc("g1", "g2", 4).AddArc("g2", "ff2", 2)
		rep, err := g.Analyze(12)
		if err != nil {
			panic(err)
		}
		slack := rep.Slack["g2"]
		scene := visual.NewTableScene(visual.KindMixed, "Path segment delays and clock period",
			[]string{"arc", "delay (ns)"},
			[][]string{{"FF1 -> G1", "3"}, {"G1 -> G2", "4"}, {"G2 -> FF2", "2"}, {"clock period", "12"}},
			map[int]bool{1: true})
		add(dataset.NewSANumber("p22", dataset.Physical, "slack",
			"Using the arc delays and the 12 ns clock period tabulated in the figure, what "+
				"is the timing slack at node G2 (required time minus arrival time), in ns?",
			scene, slack, "ns", 0.02, 0.7))
	}
	// p23: floorplan dead space.
	{
		blocks := map[string]Block{
			"A": {Name: "A", W: 5, H: 3},
			"B": {Name: "B", W: 5, H: 5},
		}
		tree, err := ParsePolish([]string{"A", "B", "V"}, blocks)
		if err != nil {
			panic(err)
		}
		dead := tree.DeadSpace()
		scene := visual.NewTableScene(visual.KindMixed, "Floorplan with block table",
			[]string{"block", "size"},
			[][]string{{"A", "5 x 3"}, {"B", "5 x 5"}, {"arrangement", "side by side"}},
			map[int]bool{1: true})
		add(dataset.NewSANumber("p23", dataset.Physical, "dead-space",
			"Blocks A (5x3) and B (5x5) in the figure are placed side by side. How much "+
				"dead space (bounding-box area minus block area) does the floorplan contain, in "+
				"square units?",
			scene, dead, "sq units", 0.01, 0.55))
	}

	if len(qs) != 23 {
		panic(fmt.Sprintf("phys: generated %d questions, want 23", len(qs)))
	}
	return qs
}

// routingScene draws terminals as annotated points on a layout canvas.
func routingScene(title string, pts []Pt, critical bool) *visual.Scene {
	s := visual.NewScene(visual.KindLayout, title).Grow(len(pts))
	const scale, off = 50.0, 60.0
	for i, p := range pts {
		var buf [24]byte
		s.Add(visual.Element{
			Type: visual.ElemPoint, Name: "t" + strconv.Itoa(i),
			Label: string(appendPt(buf[:0], p)),
			X:     off + float64(p.X)*scale, Y: off + float64(p.Y)*scale,
			Salience: 0.7, Critical: critical,
		})
	}
	return s
}

// mazeScene draws a routing grid with blockages and terminals.
func mazeScene(g *Grid, src, dst Pt) *visual.Scene {
	blocks := 0
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if g.Blocked(Pt{x, y}) {
				blocks++
			}
		}
	}
	s := visual.NewScene(visual.KindLayout, "Routing grid with blockage").Grow(blocks + 2)
	const cell = 40.0
	const off = 50.0
	// Every blockage carries the same attributes; scene attribute maps
	// are read-only, so the cells share one.
	blockage := map[string]string{"layer": "blockage"}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if g.Blocked(Pt{x, y}) {
				s.Add(visual.Element{
					Type: visual.ElemRect, Name: "blk" + strconv.Itoa(x) + "-" + strconv.Itoa(y),
					X: off + float64(x)*cell, Y: off + float64(y)*cell,
					X2: off + float64(x+1)*cell, Y2: off + float64(y+1)*cell,
					Attrs: blockage, Critical: true,
				})
			}
		}
	}
	s.Add(visual.Element{
		Type: visual.ElemPoint, Name: "src", Label: string(appendPt([]byte("SRC "), src)),
		X: off + float64(src.X)*cell, Y: off + float64(src.Y)*cell,
		Salience: 0.75, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemPoint, Name: "dst", Label: string(appendPt([]byte("DST "), dst)),
		X: off + float64(dst.X)*cell, Y: off + float64(dst.Y)*cell,
		Salience: 0.75, Critical: true,
	})
	return s
}

// layoutScene draws rectangles as layout shapes with annotations.
func layoutScene(title string, shapes []Rect, annotations []string) *visual.Scene {
	s := visual.NewScene(visual.KindLayout, title)
	const scale, off = 12.0, 60.0
	for _, r := range shapes {
		s.Add(visual.Element{
			Type: visual.ElemRect, Name: r.Name, Label: r.Name,
			X: off + float64(r.X0)*scale, Y: off + float64(r.Y0)*scale,
			X2: off + float64(r.X1)*scale, Y2: off + float64(r.Y1)*scale,
			Attrs: map[string]string{"layer": r.Layer}, Critical: true,
		})
	}
	for i, a := range annotations {
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: fmt.Sprintf("ann%d", i), Label: a,
			X: 70, Y: 340 + float64(i)*24, Salience: 0.65, Critical: true,
		})
	}
	return s
}

// rowScene draws a placement row with cells at their desired positions.
func rowScene(title string, cells []Cell) *visual.Scene {
	s := visual.NewScene(visual.KindLayout, title)
	const scale, off = 30.0, 60.0
	s.Add(visual.Element{
		Type: visual.ElemRect, Name: "row", Label: "row",
		X: off, Y: 200, X2: off + 20*scale, Y2: 240,
		Attrs: map[string]string{"layer": "cell"},
	})
	for _, c := range cells {
		s.Add(visual.Element{
			Type: visual.ElemRect, Name: c.Name,
			Label: fmt.Sprintf("%s x=%.0f w=%.0f", c.Name, c.X, c.Width),
			X:     off + c.X*scale, Y: 150, X2: off + (c.X+c.Width)*scale, Y2: 190,
			Attrs: map[string]string{"layer": "macro"}, Critical: true,
		})
	}
	return s
}
