package phys

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// --- Placement -------------------------------------------------------------

func TestLegalizeRowKnown(t *testing.T) {
	cells := []Cell{
		{Name: "A", X: 0, Width: 3},
		{Name: "B", X: 2, Width: 3},
		{Name: "C", X: 4, Width: 3},
	}
	pos, disp, err := LegalizeRow(cells, 12)
	if err != nil {
		t.Fatal(err)
	}
	// A stays at 0, B pushes to 3, C pushes to 6: displacement 1 + 2.
	if pos["A"] != 0 || pos["B"] != 3 || pos["C"] != 6 {
		t.Errorf("positions %v", pos)
	}
	if disp != 3 {
		t.Errorf("displacement %v, want 3", disp)
	}
}

func TestLegalizeRowOverflow(t *testing.T) {
	cells := []Cell{{Name: "A", X: 0, Width: 10}, {Name: "B", X: 0, Width: 10}}
	if _, _, err := LegalizeRow(cells, 12); err == nil {
		t.Error("over-capacity row accepted")
	}
}

func TestLegalizeRightEdgeClamp(t *testing.T) {
	// A cell desired beyond the row end must clamp inside.
	cells := []Cell{{Name: "A", X: 19, Width: 4}}
	pos, _, err := LegalizeRow(cells, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pos["A"] != 16 {
		t.Errorf("clamped position %v, want 16", pos["A"])
	}
}

func TestQuickLegalizeNoOverlap(t *testing.T) {
	// Property: legalised cells never overlap and always fit the row.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		cells := make([]Cell, n)
		total := 0.0
		for i := range cells {
			w := float64(1 + r.Intn(4))
			total += w
			cells[i] = Cell{Name: nodeName(i), X: float64(r.Intn(20)), Width: w}
		}
		rowW := total + float64(r.Intn(10))
		pos, _, err := LegalizeRow(cells, rowW)
		if err != nil {
			return false
		}
		type span struct{ lo, hi float64 }
		var spans []span
		for _, c := range cells {
			x := pos[c.Name]
			if x < -1e-9 || x+c.Width > rowW+1e-9 {
				return false
			}
			spans = append(spans, span{x, x + c.Width})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRowUtilization(t *testing.T) {
	cells := []Cell{{Width: 4}, {Width: 6}, {Width: 5}}
	if u := RowUtilization(cells, 20); math.Abs(u-0.75) > 1e-12 {
		t.Errorf("utilization %v", u)
	}
	if u := RowUtilization(cells, 0); u != 0 {
		t.Errorf("zero row %v", u)
	}
}

func TestPinAccessTracks(t *testing.T) {
	if n := PinAccessTracks(9, 1); n != 7 {
		t.Errorf("tracks %d", n)
	}
	if n := PinAccessTracks(2, 2); n != 0 {
		t.Errorf("negative tracks clamped: %d", n)
	}
}

// --- Floorplanning ------------------------------------------------------------

func TestSlicingShapes(t *testing.T) {
	a := LeafNode(Block{Name: "A", W: 4, H: 6})
	b := LeafNode(Block{Name: "B", W: 4, H: 4})
	c := LeafNode(Block{Name: "C", W: 6, H: 8})
	// A over B: width max(4,4)=4, height 6+4=10.
	ab := Combine(SliceH, a, b)
	w, h := ab.Shape()
	if w != 4 || h != 10 {
		t.Errorf("A H B shape %vx%v", w, h)
	}
	// (A over B) beside C: width 4+6=10, height max(10,8)=10.
	root := Combine(SliceV, ab, c)
	w, h = root.Shape()
	if w != 10 || h != 10 {
		t.Errorf("root shape %vx%v", w, h)
	}
	if root.Area() != 100 {
		t.Errorf("area %v", root.Area())
	}
	// Dead space: 100 - (24 + 16 + 48) = 12.
	if d := root.DeadSpace(); d != 12 {
		t.Errorf("dead space %v", d)
	}
}

func TestParsePolish(t *testing.T) {
	blocks := map[string]Block{
		"A": {Name: "A", W: 4, H: 6},
		"B": {Name: "B", W: 4, H: 4},
		"C": {Name: "C", W: 6, H: 8},
	}
	tree, err := ParsePolish([]string{"A", "B", "H", "C", "V"}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Area() != 100 {
		t.Errorf("area %v", tree.Area())
	}
	if _, err := ParsePolish([]string{"A", "H"}, blocks); err == nil {
		t.Error("underflow accepted")
	}
	if _, err := ParsePolish([]string{"A", "B"}, blocks); err == nil {
		t.Error("leftover operands accepted")
	}
	if _, err := ParsePolish([]string{"Z"}, blocks); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestQuickDeadSpaceNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var stack []*SlicingNode
		for i := 0; i < 4; i++ {
			stack = append(stack, LeafNode(Block{
				W: float64(1 + r.Intn(8)), H: float64(1 + r.Intn(8)),
			}))
		}
		for len(stack) > 1 {
			op := SliceH
			if r.Intn(2) == 0 {
				op = SliceV
			}
			n := Combine(op, stack[len(stack)-2], stack[len(stack)-1])
			stack = append(stack[:len(stack)-2], n)
		}
		return stack[0].DeadSpace() >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- DRC ------------------------------------------------------------------

func TestSpacingAndOverlap(t *testing.T) {
	a := Rect{X0: 0, Y0: 0, X1: 4, Y1: 10}
	b := Rect{X0: 6, Y0: 0, X1: 10, Y1: 10}
	if s := Spacing(a, b); s != 2 {
		t.Errorf("spacing %d", s)
	}
	c := Rect{X0: 2, Y0: 2, X1: 8, Y1: 8}
	if !Overlaps(a, c) {
		t.Error("overlap not detected")
	}
	if Overlaps(a, b) {
		t.Error("false overlap")
	}
	if s := Spacing(a, c); s != 0 {
		t.Errorf("overlapping spacing %d", s)
	}
	// Diagonal neighbours.
	d := Rect{X0: 7, Y0: 13, X1: 9, Y1: 15}
	if s := Spacing(a, d); s != 3 {
		t.Errorf("diagonal spacing %d, want 3 (max of gaps)", s)
	}
}

func TestRectWidth(t *testing.T) {
	if w := (Rect{X0: 0, Y0: 0, X1: 4, Y1: 20}).Width(); w != 4 {
		t.Errorf("width %d", w)
	}
	if w := (Rect{X0: 0, Y0: 0, X1: 20, Y1: 3}).Width(); w != 3 {
		t.Errorf("width %d", w)
	}
}

func TestCheckDRC(t *testing.T) {
	shapes := []Rect{
		{Name: "M1a", Layer: "metal1", X0: 0, Y0: 0, X1: 4, Y1: 20},
		{Name: "M1b", Layer: "metal1", X0: 6, Y0: 0, X1: 10, Y1: 20},  // spacing 2, OK
		{Name: "M1c", Layer: "metal1", X0: 11, Y0: 0, X1: 14, Y1: 20}, // spacing 1 to M1b: violation
		{Name: "M1d", Layer: "metal1", X0: 20, Y0: 0, X1: 22, Y1: 8},  // width 2: violation
		{Name: "M2a", Layer: "metal2", X0: 0, Y0: 0, X1: 1, Y1: 5},    // no rule for metal2
	}
	rules := map[string]DRCRule{"metal1": {MinWidth: 3, MinSpacing: 2}}
	v := CheckDRC(shapes, rules)
	var widths, spacings int
	for _, viol := range v {
		switch viol.Kind {
		case "width":
			widths++
		case "spacing":
			spacings++
		}
		if viol.String() == "" {
			t.Error("empty violation string")
		}
	}
	if widths != 1 || spacings != 1 {
		t.Errorf("violations: %d width, %d spacing (want 1, 1): %v", widths, spacings, v)
	}
}

// --- Question generation ------------------------------------------------------

func TestGenerateComposition(t *testing.T) {
	qs := Generate()
	if len(qs) != 23 {
		t.Fatalf("generated %d, want 23", len(qs))
	}
	mc, sa := 0, 0
	kinds := map[visual.Kind]int{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
		if q.Type == dataset.MultipleChoice {
			mc++
		} else {
			sa++
		}
		kinds[q.Visual.Kind]++
	}
	if mc != 7 || sa != 16 {
		t.Errorf("mc=%d sa=%d, want 7/16", mc, sa)
	}
	want := map[visual.Kind]int{
		visual.KindLayout: 12, visual.KindDiagram: 5, visual.KindFlow: 2,
		visual.KindSchematic: 2, visual.KindMixed: 2,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("visual %s: %d, want %d", k, kinds[k], n)
		}
	}
}

func TestSteinerQuestionGolden(t *testing.T) {
	// p01's golden must equal the Steiner length of the stated
	// terminals, and be at most the star cost p02 compares against.
	terminals := []Pt{{1, 1}, {7, 2}, {3, 6}, {6, 7}}
	_, _, steinerLen := SteinerTree(terminals)
	star := StarCost(terminals, Pt{4, 4})
	for _, q := range Generate() {
		if q.ID == "p01" && q.Golden.Number != float64(steinerLen) {
			t.Errorf("p01 golden %v, want %d", q.Golden.Number, steinerLen)
		}
		if q.ID == "p02" && steinerLen > star {
			t.Errorf("p02 premise broken: steiner %d > star %d", steinerLen, star)
		}
	}
}
