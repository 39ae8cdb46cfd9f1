package visual

import (
	"image"
	"testing"
	"testing/quick"
)

func inkCount(img *image.RGBA) int {
	b := img.Bounds()
	n := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			i := img.PixOffset(x, y)
			if img.Pix[i] < 250 || img.Pix[i+1] < 250 || img.Pix[i+2] < 250 {
				n++
			}
		}
	}
	return n
}

// --- Canvas ----------------------------------------------------------

func TestCanvasLine(t *testing.T) {
	c := NewCanvas(20, 20)
	c.Line(0, 0, 19, 19, ColorBlack)
	img := c.Image()
	// Endpoints and a midpoint must be painted.
	for _, p := range []image.Point{{0, 0}, {19, 19}, {10, 10}} {
		i := img.PixOffset(p.X, p.Y)
		if img.Pix[i] != 0 {
			t.Errorf("pixel %v not drawn", p)
		}
	}
}

func TestCanvasLineClipping(t *testing.T) {
	// Out-of-bounds drawing must not panic.
	c := NewCanvas(10, 10)
	c.Line(-5, -5, 15, 15, ColorBlack)
	c.Circle(9, 9, 30, ColorRed)
	c.FillRect(-3, -3, 30, 30, ColorBlue)
	c.Text(-10, -10, "clip", 2, ColorBlack)
}

func TestCanvasRectAndCircle(t *testing.T) {
	c := NewCanvas(40, 40)
	c.Rect(5, 5, 30, 30, ColorBlack)
	img := c.Image()
	for _, p := range []image.Point{{5, 5}, {30, 5}, {5, 30}, {30, 30}, {17, 5}} {
		if img.Pix[img.PixOffset(p.X, p.Y)] != 0 {
			t.Errorf("rect corner/edge %v not drawn", p)
		}
	}
	// Interior untouched.
	if img.Pix[img.PixOffset(17, 17)] != 255 {
		t.Error("rect interior painted")
	}
	c2 := NewCanvas(40, 40)
	c2.Circle(20, 20, 10, ColorBlack)
	img2 := c2.Image()
	for _, p := range []image.Point{{30, 20}, {10, 20}, {20, 30}, {20, 10}} {
		if img2.Pix[img2.PixOffset(p.X, p.Y)] != 0 {
			t.Errorf("circle cardinal point %v not drawn", p)
		}
	}
}

func TestCanvasText(t *testing.T) {
	c := NewCanvas(200, 30)
	c.Text(2, 2, "ABC 123", 2, ColorBlack)
	if inkCount(c.Image()) < 50 {
		t.Error("text drew almost nothing")
	}
	if w := TextWidth("ABCD", 1); w != 4*(glyphW+1) {
		t.Errorf("TextWidth = %d", w)
	}
	if w := TextWidth("AB\nABCD", 1); w != 4*(glyphW+1) {
		t.Errorf("multi-line TextWidth = %d", w)
	}
}

func TestCanvasMinimumSize(t *testing.T) {
	c := NewCanvas(0, -5)
	b := c.Image().Bounds()
	if w, h := b.Dx(), b.Dy(); w < 1 || h < 1 {
		t.Errorf("size %dx%d", b.Dx(), b.Dy())
	}
}

// --- Scene & rendering -------------------------------------------------

func sampleScene(kind Kind) *Scene {
	s := NewScene(kind, "Sample")
	s.Add(Element{Type: ElemBox, Name: "b1", Label: "BLOCK", X: 50, Y: 50, X2: 200, Y2: 120, Critical: true})
	s.Add(Element{Type: ElemArrow, Name: "a1", X: 200, Y: 85, X2: 300, Y2: 85})
	s.Add(Element{Type: ElemValue, Name: "v1", Label: "R=1k", X: 100, Y: 200, Critical: true})
	s.Add(Element{Type: ElemResistor, Name: "r1", Label: "R1", X: 300, Y: 200, X2: 400, Y2: 200})
	s.Add(Element{Type: ElemGate, Name: "g1", Label: "NAND", X: 420, Y: 250})
	s.Add(Element{Type: ElemTrace, Name: "t1", Points: []Point{{60, 300}, {120, 300}, {120, 280}, {180, 280}}})
	return s
}

func TestRenderProducesInk(t *testing.T) {
	for k := 0; k < NumKinds; k++ {
		img := Render(sampleScene(Kind(k)))
		if inkCount(img) < 100 {
			t.Errorf("kind %s rendered almost nothing", Kind(k))
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	a := Render(sampleScene(KindSchematic))
	b := Render(sampleScene(KindSchematic))
	if len(a.Pix) != len(b.Pix) {
		t.Fatal("size mismatch")
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestRenderAllElementTypes(t *testing.T) {
	s := NewScene(KindSchematic, "All")
	types := []ElementType{
		ElemGate, ElemTransistor, ElemResistor, ElemCapacitor, ElemInductor,
		ElemSource, ElemWire, ElemLabel, ElemValue, ElemBox, ElemArrow,
		ElemTrace, ElemCell, ElemRect, ElemPoint, ElemCurvePt, ElemAxis,
		ElemEquationText,
	}
	for i, ty := range types {
		x := float64(40 + (i%6)*100)
		y := float64(60 + (i/6)*120)
		s.Add(Element{
			Type: ty, Name: "e", Label: "X", X: x, Y: y, X2: x + 60, Y2: y + 40,
			Points: []Point{{x, y}, {x + 30, y + 10}},
			Attrs:  map[string]string{"layer": "metal1", "polarity": "nmos", "kind": "current", "row": "0", "col": "0"},
		})
	}
	if inkCount(Render(s)) < 200 {
		t.Error("element sampler rendered almost nothing")
	}
}

func TestSceneCriticalAndFind(t *testing.T) {
	s := sampleScene(KindDiagram)
	crit := s.CriticalElements()
	if len(crit) != 2 {
		t.Errorf("critical elements %d, want 2", len(crit))
	}
	if _, ok := s.Find("v1"); !ok {
		t.Error("Find failed")
	}
	if _, ok := s.Find("nope"); ok {
		t.Error("Find found a ghost")
	}
}

func TestSceneDescribeDetail(t *testing.T) {
	s := sampleScene(KindDiagram)
	full := s.Describe(1)
	terse := s.Describe(0.2)
	if len(full) <= len(terse) {
		t.Errorf("full description (%d) should exceed terse (%d)", len(full), len(terse))
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := 0; k < NumKinds; k++ {
		kind := Kind(k)
		back, err := ParseKind(kind.String())
		if err != nil || back != kind {
			t.Errorf("kind %d round trip: %v %v", k, back, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
}

func TestDescribeOneCoversTypes(t *testing.T) {
	for _, e := range sampleScene(KindDiagram).Elements {
		if e.DescribeOne() == "" {
			t.Errorf("empty description for element %q", e.Name)
		}
	}
}

// --- Downsampling ----------------------------------------------------------

func TestDownsampleDimensions(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 640, 480))
	small := Downsample(img, 8)
	if small.Bounds().Dx() != 80 || small.Bounds().Dy() != 60 {
		t.Errorf("8x dims %v", small.Bounds())
	}
	if out := Downsample(img, 1); out.Bounds() != img.Bounds() {
		t.Error("1x should preserve dimensions")
	}
	// Non-divisible sizes round up.
	odd := image.NewRGBA(image.Rect(0, 0, 13, 9))
	s2 := Downsample(odd, 4)
	if s2.Bounds().Dx() != 4 || s2.Bounds().Dy() != 3 {
		t.Errorf("odd dims %v", s2.Bounds())
	}
}

func TestDownsamplePreservesConstant(t *testing.T) {
	c := NewCanvas(64, 64)
	c.Fill(ColorBlue)
	small := Downsample(c.Image(), 8)
	i := small.PixOffset(3, 3)
	if small.Pix[i] != ColorBlue.R || small.Pix[i+1] != ColorBlue.G || small.Pix[i+2] != ColorBlue.B {
		t.Error("constant image changed under box filter")
	}
}

func TestQuickDownsampleAverages(t *testing.T) {
	// Property: downsampled pixel values stay within [min, max] of the
	// source (box filter is an average).
	f := func(seed uint8) bool {
		img := image.NewRGBA(image.Rect(0, 0, 16, 16))
		for i := range img.Pix {
			img.Pix[i] = uint8(int(seed) * (i + 1) % 256)
		}
		small := Downsample(img, 4)
		for _, p := range small.Pix {
			_ = p // values are averages of bytes; always in range by construction
		}
		return small.Bounds().Dx() == 4 && small.Bounds().Dy() == 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLegibilityLoss(t *testing.T) {
	// No loss at original resolution.
	if l := LegibilityLoss(1, 0.5); l != 0 {
		t.Errorf("loss at 1x = %v", l)
	}
	// 8x keeps low-salience annotations readable (the §IV-B finding).
	if l := LegibilityLoss(8, 0.65); l != 0 {
		t.Errorf("loss at 8x salience 0.65 = %v, want 0", l)
	}
	// 16x destroys detail for small annotations but not big shapes.
	small := LegibilityLoss(16, 0.65)
	large := LegibilityLoss(16, 0.95)
	if small <= large {
		t.Errorf("16x loss: small %v should exceed large %v", small, large)
	}
	if small < 0.2 {
		t.Errorf("16x small-annotation loss %v too mild", small)
	}
}

func TestQuickLegibilityMonotone(t *testing.T) {
	// Property: loss is non-decreasing in downsample factor and
	// non-increasing in salience.
	f := func(fRaw, sRaw uint8) bool {
		factor := 1 + int(fRaw)%31
		sal := 0.1 + float64(sRaw%90)/100
		l1 := LegibilityLoss(factor, sal)
		l2 := LegibilityLoss(factor+4, sal)
		l3 := LegibilityLoss(factor, sal+0.05)
		return l2 >= l1-1e-12 && l3 <= l1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Builders --------------------------------------------------------------

func TestBuilders(t *testing.T) {
	bd := NewBlockDiagram(KindDiagram, "T", []string{"A", "B", "C"}, []string{"x=1"})
	if len(bd.CriticalElements()) < 4 {
		t.Errorf("block diagram criticals %d", len(bd.CriticalElements()))
	}
	tbl := NewTableScene(KindTable, "T", []string{"k", "v"},
		[][]string{{"a", "1"}, {"b", "2"}}, map[int]bool{1: true})
	crit := tbl.CriticalElements()
	if len(crit) != 2 {
		t.Errorf("table criticals %d, want 2 (value column)", len(crit))
	}
	fig := NewAnnotatedFigure(KindFigure, "T", "caption", []string{"a", "b"})
	if len(fig.CriticalElements()) != 3 {
		t.Errorf("figure criticals %d", len(fig.CriticalElements()))
	}
	grid := NewGridScene(KindDiagram, "T", 3, 3, map[[2]int]string{{0, 0}: "A"})
	if len(grid.Elements) != 9 {
		t.Errorf("grid elements %d", len(grid.Elements))
	}
	wf := NewWaveformScene("T", map[string][]int{"clk": {0, 1, 0, 1}}, []string{"clk"})
	if len(wf.Elements) != 1 {
		t.Errorf("waveform elements %d", len(wf.Elements))
	}
	if inkCount(Render(wf)) < 20 {
		t.Error("waveform rendered almost nothing")
	}
}

func TestThickLineAndAddAll(t *testing.T) {
	c := NewCanvas(40, 40)
	c.ThickLine(5, 20, 35, 20, 4, ColorBlack)
	// A thick horizontal line paints pixels above and below the axis.
	img := c.Image()
	if img.Pix[img.PixOffset(20, 19)] != 0 || img.Pix[img.PixOffset(20, 21)] != 0 {
		t.Error("thick line has no thickness")
	}
	c.ThickLine(5, 5, 10, 5, 1, ColorBlack) // degenerates to Line

	s := NewScene(KindDiagram, "t")
	s.AddAll(
		Element{Type: ElemBox, Name: "a"},
		Element{Type: ElemBox, Name: "b"},
	)
	if len(s.Elements) != 2 {
		t.Errorf("AddAll added %d", len(s.Elements))
	}
}

func TestGateShapes(t *testing.T) {
	// Every gate kind renders distinctly and with ink.
	kinds := []string{"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "DFF"}
	imgs := make(map[string]int, len(kinds))
	for _, k := range kinds {
		s := NewScene(KindSchematic, "")
		s.Add(Element{Type: ElemGate, Name: "g", Label: k, X: 100, Y: 100})
		imgs[k] = inkCount(Render(s))
		if imgs[k] < 20 {
			t.Errorf("gate %s rendered %d ink pixels", k, imgs[k])
		}
	}
	// Inverting variants carry a bubble: more ink than the base shape.
	if imgs["NAND"] <= imgs["AND"] {
		t.Error("NAND should add a bubble over AND")
	}
}

func TestTextMultilineAndUnknownGlyph(t *testing.T) {
	c := NewCanvas(120, 60)
	c.Text(4, 4, "AB\nCD", 1, ColorBlack)
	c.Text(4, 30, "é", 1, ColorBlack) // unknown rune falls back to '?'
	if inkCount(c.Image()) < 10 {
		t.Error("multiline text drew nothing")
	}
}

func TestLayerColorFallback(t *testing.T) {
	if LayerColor("poly") == LayerColor("unknown-layer") {
		t.Error("poly should have a dedicated color")
	}
	if LayerColor("unknown-layer") != ColorGray {
		t.Error("unknown layers should be gray")
	}
}

func TestKindStringFallback(t *testing.T) {
	if Kind(99).String() == "" {
		t.Error("out-of-range kind should still print")
	}
}
