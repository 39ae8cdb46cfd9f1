package phys

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/visual"
)

// ExtraAt builds the i-th extended Physical Design question of fold seed,
// cycling through the package's templates; the "xp-" ID prefix keeps
// it clear of the fixed 142 questions.
func ExtraAt(seed string, i int) *dataset.Question {
	inst := fmt.Sprintf("%s-%d", seed, i)
	id := fmt.Sprintf("xp-%s-%02d", seed, i)
	switch i % 5 {
	case 0:
		return extraHPWL(id, inst)
	case 1:
		return extraRMST(id, inst)
	case 2:
		return extraMaze(id, inst)
	case 3:
		return extraSlack(id, inst)
	default:
		return extraElmore(id, inst)
	}
}

func randomTerminals(inst string, n, span int) []Pt {
	r := rng.New("phys-extra-pts", inst)
	pts := make([]Pt, 0, n)
	seen := map[Pt]bool{}
	for len(pts) < n {
		p := Pt{r.IntN(span), r.IntN(span)}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

func extraHPWL(id, inst string) *dataset.Question {
	pts := randomTerminals(inst, 4, 12)
	w := HPWL(pts)
	scene := routingScene("Net bounding box", pts, true)
	return dataset.NewSANumber(id, dataset.Physical, "hpwl",
		fmt.Sprintf("A net connects the pins at %s as drawn in the figure. What is its "+
			"half-perimeter wirelength (HPWL) estimate in grid units?", FormatPts(pts)),
		scene, float64(w), "units", 0, 0.5)
}

func extraRMST(id, inst string) *dataset.Question {
	pts := randomTerminals(inst, 3, 8)
	_, l := RMST(pts)
	scene := routingScene("Three-terminal net", pts, true)
	return dataset.NewSANumber(id, dataset.Physical, "rmst",
		fmt.Sprintf("For the three pins at %s shown in the figure, what is the total "+
			"wirelength of the rectilinear minimum spanning tree?", FormatPts(pts)),
		scene, float64(l), "units", 0, 0.55)
}

func extraMaze(id, inst string) *dataset.Question {
	r := rng.New("phys-extra-maze", inst)
	g := NewGrid(10, 10)
	wallX := 3 + r.IntN(4)
	gapY := r.IntN(10)
	for y := 0; y < 10; y++ {
		if y != gapY {
			g.Block(Pt{wallX, y})
		}
	}
	src := Pt{1, 1 + r.IntN(8)}
	dst := Pt{8, 1 + r.IntN(8)}
	length, err := g.RouteLength(src, dst)
	if err != nil {
		panic(err)
	}
	scene := mazeScene(g, src, dst)
	return dataset.NewSANumber(id, dataset.Physical, "maze-route",
		"The routing grid in the figure contains a blockage wall with a single gap "+
			"(shaded cells are blocked). Using shortest-path maze routing, how many grid "+
			"edges long is the route from SRC to DST?",
		scene, float64(length), "edges", 0, 0.65)
}

func extraSlack(id, inst string) *dataset.Question {
	r := rng.New("phys-extra-slack", inst)
	d1 := float64(1 + r.IntN(5))
	d2 := float64(1 + r.IntN(5))
	d3 := float64(1 + r.IntN(5))
	period := d1 + d2 + d3 + float64(1+r.IntN(6))
	g := NewTimingGraph()
	g.AddArc("ff1", "g1", d1).AddArc("g1", "g2", d2).AddArc("g2", "ff2", d3)
	rep, err := g.Analyze(period)
	if err != nil {
		panic(err)
	}
	slack := rep.Slack["g2"]
	scene := visual.NewTableScene(visual.KindMixed, "Path segment delays and clock period",
		[]string{"arc", "delay (ns)"},
		[][]string{
			{"FF1 -> G1", fmt.Sprintf("%g", d1)},
			{"G1 -> G2", fmt.Sprintf("%g", d2)},
			{"G2 -> FF2", fmt.Sprintf("%g", d3)},
			{"clock period", fmt.Sprintf("%g", period)},
		}, map[int]bool{1: true})
	return dataset.NewSANumber(id, dataset.Physical, "slack",
		fmt.Sprintf("Using the arc delays and the %g ns clock period tabulated in the "+
			"figure, what is the timing slack at node G2 (required minus arrival), in ns?", period),
		scene, slack, "ns", 0.02, 0.65)
}

func extraElmore(id, inst string) *dataset.Question {
	r := rng.New("phys-extra-elmore", inst)
	r1 := float64(1+r.IntN(4)) * 0.05 // kOhm
	r2 := float64(1+r.IntN(4)) * 0.05
	c1 := float64(1+r.IntN(4)) * 10 // fF
	c2 := float64(1+r.IntN(4)) * 10
	d := ElmoreDelay([]float64{r1, r2}, []float64{c1, c2})
	scene := visual.NewBlockDiagram(visual.KindDiagram, "Two-segment RC interconnect",
		[]string{"DRV", "R1-C1", "R2-C2"},
		[]string{fmt.Sprintf("R1=%g Ohm, R2=%g Ohm", r1*1000, r2*1000),
			fmt.Sprintf("C1=%g fF, C2=%g fF", c1, c2)})
	return dataset.NewSANumber(id, dataset.Physical, "elmore",
		"The two-segment RC ladder in the figure models a wire. Using the Elmore delay "+
			"model, what is the delay from driver to the far end, in ps?",
		scene, d, "ps", 0.02, 0.7)
}
