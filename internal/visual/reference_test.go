package visual

import (
	"image"
	"image/color"
	"math"
	"math/rand/v2"
	"testing"
)

// This file retains the pre-span-kernel NAIVE raster implementations —
// per-pixel Set loops with a bounds check on every pixel — exactly as
// they were before the rewrite. They are the correctness oracle: the
// differential tests below (and the five-generator sweep in
// differential_test.go) assert that the span kernel produces
// byte-identical Pix for every primitive, element type and downsample
// factor. Identifiers are exported so the external test package
// (visual_test) can drive the same oracle over the real benchmark
// scenes.

// RefCanvas is the naive reference drawing surface. It implements the
// raster interface, so renderScene/drawElement rasterise through it
// unchanged.
type RefCanvas struct {
	img *image.RGBA
}

// NewRefCanvas mirrors NewCanvas: a white canvas, naive fill.
func NewRefCanvas(w, h int) *RefCanvas {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	c := &RefCanvas{img: image.NewRGBA(image.Rect(0, 0, w, h))}
	c.Fill(ColorWhite)
	return c
}

func (c *RefCanvas) Image() *image.RGBA { return c.img }

// Fill paints every pixel individually (the old Fill).
func (c *RefCanvas) Fill(col color.RGBA) {
	b := c.img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c.img.SetRGBA(x, y, col)
		}
	}
}

// Set paints one pixel, ignoring out-of-bounds coordinates.
func (c *RefCanvas) Set(x, y int, col color.RGBA) {
	if image.Pt(x, y).In(c.img.Bounds()) {
		c.img.SetRGBA(x, y, col)
	}
}

// Line is the old all-Bresenham path with a bounds check per pixel.
func (c *RefCanvas) Line(x0, y0, x1, y1 int, col color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := sign(x1 - x0)
	sy := sign(y1 - y0)
	err := dx + dy
	for {
		c.Set(x0, y0, col)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func (c *RefCanvas) ThickLine(x0, y0, x1, y1, thickness int, col color.RGBA) {
	if thickness <= 1 {
		c.Line(x0, y0, x1, y1, col)
		return
	}
	ang := math.Atan2(float64(y1-y0), float64(x1-x0)) + math.Pi/2
	for t := 0; t < thickness; t++ {
		off := float64(t) - float64(thickness-1)/2
		ox := int(math.Round(off * math.Cos(ang)))
		oy := int(math.Round(off * math.Sin(ang)))
		c.Line(x0+ox, y0+oy, x1+ox, y1+oy, col)
	}
}

func (c *RefCanvas) Rect(x0, y0, x1, y1 int, col color.RGBA) {
	x0, x1 = ordered(x0, x1)
	y0, y1 = ordered(y0, y1)
	c.Line(x0, y0, x1, y0, col)
	c.Line(x1, y0, x1, y1, col)
	c.Line(x1, y1, x0, y1, col)
	c.Line(x0, y1, x0, y0, col)
}

// FillRect paints every pixel of the rectangle individually.
func (c *RefCanvas) FillRect(x0, y0, x1, y1 int, col color.RGBA) {
	x0, x1 = ordered(x0, x1)
	y0, y1 = ordered(y0, y1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			c.Set(x, y, col)
		}
	}
}

func (c *RefCanvas) Circle(cx, cy, r int, col color.RGBA) {
	if r <= 0 {
		c.Set(cx, cy, col)
		return
	}
	x, y := r, 0
	err := 1 - r
	for x >= y {
		c.Set(cx+x, cy+y, col)
		c.Set(cx+y, cy+x, col)
		c.Set(cx-y, cy+x, col)
		c.Set(cx-x, cy+y, col)
		c.Set(cx-x, cy-y, col)
		c.Set(cx-y, cy-x, col)
		c.Set(cx+y, cy-x, col)
		c.Set(cx+x, cy-y, col)
		y++
		if err < 0 {
			err += 2*y + 1
		} else {
			x--
			err += 2*(y-x) + 1
		}
	}
}

// FillCircle tests every pixel of the bounding square (the old kernel).
func (c *RefCanvas) FillCircle(cx, cy, r int, col color.RGBA) {
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx*dx+dy*dy <= r*r {
				c.Set(cx+dx, cy+dy, col)
			}
		}
	}
}

func (c *RefCanvas) Arc(cx, cy, r int, a0, a1 float64, col color.RGBA) {
	if a1 < a0 {
		a0, a1 = a1, a0
	}
	steps := int(float64(r)*(a1-a0)) + 8
	for i := 0; i <= steps; i++ {
		a := a0 + (a1-a0)*float64(i)/float64(steps)
		x := cx + int(math.Round(float64(r)*math.Cos(a)))
		y := cy + int(math.Round(float64(r)*math.Sin(a)))
		c.Set(x, y, col)
	}
}

func (c *RefCanvas) Polyline(pts []Point, col color.RGBA) {
	for i := 1; i < len(pts); i++ {
		c.Line(int(pts[i-1].X), int(pts[i-1].Y), int(pts[i].X), int(pts[i].Y), col)
	}
}

func (c *RefCanvas) Arrow(x0, y0, x1, y1 int, col color.RGBA) {
	c.Line(x0, y0, x1, y1, col)
	ang := math.Atan2(float64(y1-y0), float64(x1-x0))
	const headLen = 8.0
	const headAng = 0.45
	for _, s := range []float64{+1, -1} {
		hx := float64(x1) - headLen*math.Cos(ang+s*headAng)
		hy := float64(y1) - headLen*math.Sin(ang+s*headAng)
		c.Line(x1, y1, int(math.Round(hx)), int(math.Round(hy)), col)
	}
}

func (c *RefCanvas) Text(x, y int, s string, scale int, col color.RGBA) {
	if scale < 1 {
		scale = 1
	}
	cx := x
	for _, r := range s {
		if r == '\n' {
			y += (glyphH + 2) * scale
			cx = x
			continue
		}
		c.glyph(cx, y, r, scale, col)
		cx += (glyphW + 1) * scale
	}
}

// glyph is the old nested per-pixel Set loop over scaled glyph bits.
func (c *RefCanvas) glyph(x, y int, r rune, scale int, col color.RGBA) {
	g, ok := font5x7[r]
	if !ok {
		g = font5x7['?']
	}
	for row := 0; row < glyphH; row++ {
		bits := g[row]
		for colIdx := 0; colIdx < glyphW; colIdx++ {
			if bits&(1<<(glyphW-1-colIdx)) != 0 {
				for sy := 0; sy < scale; sy++ {
					for sx := 0; sx < scale; sx++ {
						c.Set(x+colIdx*scale+sx, y+row*scale+sy, col)
					}
				}
			}
		}
	}
}

// RenderReference rasterises a scene with the naive kernel through the
// same renderScene/drawElement code as the production Render.
func RenderReference(s *Scene) *image.RGBA {
	c := NewRefCanvas(s.Width, s.Height)
	renderScene(c, s)
	return c.Image()
}

// DownsampleReference is the old per-pixel-block box filter: sum the
// factor x factor block with clamping, divide once. The factor <= 1 path
// copies row-by-row (the seed's whole-buffer copy sheared sub-image
// views; the intent — an exact pixel copy — is what the kernel must
// match).
func DownsampleReference(src *image.RGBA, factor int) *image.RGBA {
	b := src.Bounds()
	if factor <= 1 {
		out := image.NewRGBA(b)
		w4 := 4 * b.Dx()
		for y := b.Min.Y; y < b.Max.Y; y++ {
			si := src.PixOffset(b.Min.X, y)
			di := out.PixOffset(b.Min.X, y)
			copy(out.Pix[di:di+w4], src.Pix[si:si+w4])
		}
		return out
	}
	w := (b.Dx() + factor - 1) / factor
	h := (b.Dy() + factor - 1) / factor
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	dst := image.NewRGBA(image.Rect(0, 0, w, h))
	for oy := 0; oy < h; oy++ {
		for ox := 0; ox < w; ox++ {
			var r, g, bsum, a, n uint32
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					sx := b.Min.X + ox*factor + dx
					sy := b.Min.Y + oy*factor + dy
					if sx >= b.Max.X || sy >= b.Max.Y {
						continue
					}
					i := src.PixOffset(sx, sy)
					r += uint32(src.Pix[i])
					g += uint32(src.Pix[i+1])
					bsum += uint32(src.Pix[i+2])
					a += uint32(src.Pix[i+3])
					n++
				}
			}
			if n == 0 {
				n = 1
			}
			j := dst.PixOffset(ox, oy)
			dst.Pix[j] = uint8(r / n)
			dst.Pix[j+1] = uint8(g / n)
			dst.Pix[j+2] = uint8(bsum / n)
			dst.Pix[j+3] = uint8(a / n)
		}
	}
	return dst
}

// PixEqual reports whether two images have identical bounds and
// byte-identical pixel rows, returning the first differing offset.
func PixEqual(a, b *image.RGBA) (bool, int) {
	if a.Bounds() != b.Bounds() {
		return false, -1
	}
	bb := a.Bounds()
	w4 := 4 * bb.Dx()
	for y := bb.Min.Y; y < bb.Max.Y; y++ {
		ra := a.Pix[a.PixOffset(bb.Min.X, y) : a.PixOffset(bb.Min.X, y)+w4]
		rb := b.Pix[b.PixOffset(bb.Min.X, y) : b.PixOffset(bb.Min.X, y)+w4]
		for i := range ra {
			if ra[i] != rb[i] {
				return false, a.PixOffset(bb.Min.X, y) + i
			}
		}
	}
	return true, 0
}

// --- Primitive-level differential fuzzing -----------------------------

// drawOp applies the same random primitive to the span kernel and to the
// naive reference.
type drawOp func(c *Canvas, r *RefCanvas)

// randomOps generates a seeded stream of primitives that deliberately
// includes the degenerate and clipped cases: points, H/V lines, shapes
// partly or fully out of bounds, zero-size rects, negative radii, text
// at every scale with newlines and unknown runes.
func randomOps(rng *rand.Rand, w, h int) []drawOp {
	cols := []color.RGBA{ColorBlack, ColorRed, ColorBlue, ColorGreen, ColorGray, ColorWhite}
	col := func() color.RGBA { return cols[rng.IntN(len(cols))] }
	// Coordinates straddle the canvas: [-w/2, 3w/2).
	cx := func() int { return rng.IntN(2*w) - w/2 }
	cy := func() int { return rng.IntN(2*h) - h/2 }
	var ops []drawOp
	for i := 0; i < 120; i++ {
		x0, y0, x1, y1 := cx(), cy(), cx(), cy()
		k := col()
		switch rng.IntN(10) {
		case 0: // general line
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Line(x0, y0, x1, y1, k); r.Line(x0, y0, x1, y1, k) })
		case 1: // horizontal line (dominant schematic case)
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Line(x0, y0, x1, y0, k); r.Line(x0, y0, x1, y0, k) })
		case 2: // vertical line
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Line(x0, y0, x0, y1, k); r.Line(x0, y0, x0, y1, k) })
		case 3:
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.FillRect(x0, y0, x1, y1, k); r.FillRect(x0, y0, x1, y1, k) })
		case 4:
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Rect(x0, y0, x1, y1, k); r.Rect(x0, y0, x1, y1, k) })
		case 5:
			rad := rng.IntN(h) - 2 // includes negative and zero radii
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.FillCircle(x0, y0, rad, k); r.FillCircle(x0, y0, rad, k) })
		case 6:
			rad := rng.IntN(h / 2)
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Circle(x0, y0, rad, k); r.Circle(x0, y0, rad, k) })
		case 7:
			scale := 1 + rng.IntN(3)
			s := []string{"R1=1k", "NAND\nNOR", "é?!", "ABC 123", "x"}[rng.IntN(5)]
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Text(x0, y0, s, scale, k); r.Text(x0, y0, s, scale, k) })
		case 8:
			th := 1 + rng.IntN(4)
			ops = append(ops, func(c *Canvas, r *RefCanvas) {
				c.ThickLine(x0, y0, x1, y1, th, k)
				r.ThickLine(x0, y0, x1, y1, th, k)
			})
		case 9:
			a0, a1 := rng.Float64()*7-3.5, rng.Float64()*7-3.5
			rad := rng.IntN(h / 2)
			ops = append(ops, func(c *Canvas, r *RefCanvas) { c.Arc(x0, y0, rad, a0, a1, k); r.Arc(x0, y0, rad, a0, a1, k) })
		}
	}
	return ops
}

func TestKernelDifferentialPrimitives(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		w, h := 3+rng.IntN(200), 3+rng.IntN(160)
		c := NewCanvas(w, h)
		r := NewRefCanvas(w, h)
		if ok, off := PixEqual(c.Image(), r.Image()); !ok {
			t.Fatalf("seed %d: fresh canvases differ at offset %d", seed, off)
		}
		for i, op := range randomOps(rng, w, h) {
			op(c, r)
			if ok, off := PixEqual(c.Image(), r.Image()); !ok {
				t.Fatalf("seed %d: op %d diverged at offset %d (canvas %dx%d)", seed, i, off, w, h)
			}
		}
	}
}

func TestKernelDifferentialElementTypes(t *testing.T) {
	// One scene exercising every element type, including clipped
	// placements near and beyond the canvas edge.
	types := []ElementType{
		ElemGate, ElemTransistor, ElemResistor, ElemCapacitor, ElemInductor,
		ElemSource, ElemWire, ElemLabel, ElemValue, ElemBox, ElemArrow,
		ElemTrace, ElemCell, ElemRect, ElemPoint, ElemCurvePt, ElemAxis,
		ElemEquationText,
	}
	gates := []string{"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "DFF"}
	s := NewScene(KindSchematic, "Differential: All Elements")
	for i, ty := range types {
		x := float64(30 + (i%6)*105)
		y := float64(50 + (i/6)*130)
		s.Add(Element{
			Type: ty, Name: "e", Label: "X=1", X: x, Y: y, X2: x + 70, Y2: y + 45,
			Points: []Point{{x, y}, {x + 35, y + 12}, {x + 60, y - 8}},
			Attrs:  map[string]string{"layer": "metal1", "polarity": "pmos", "kind": "current", "row": "0", "col": "0"},
		})
	}
	for i, g := range gates {
		s.Add(Element{Type: ElemGate, Name: "g", Label: g, X: float64(20 + i*68), Y: 420})
	}
	// Clipped elements straddling every edge.
	s.AddAll(
		Element{Type: ElemBox, Name: "clip1", Label: "EDGE", X: -30, Y: -20, X2: 60, Y2: 40},
		Element{Type: ElemRect, Name: "clip2", X: 600, Y: 450, X2: 700, Y2: 520, Attrs: map[string]string{"layer": "poly"}},
		Element{Type: ElemPoint, Name: "clip3", X: 639, Y: 479},
		Element{Type: ElemWire, Name: "clip4", X: -50, Y: 240, X2: 700, Y2: 240},
		Element{Type: ElemWire, Name: "clip5", X: 320, Y: -50, X2: 320, Y2: 530},
		Element{Type: ElemLabel, Name: "clip6", Label: "OFF", X: 630, Y: -3},
	)
	got := Render(s)
	want := RenderReference(s)
	if ok, off := PixEqual(got, want); !ok {
		t.Fatalf("element-type render diverged at offset %d", off)
	}
}

func TestKernelDifferentialDownsample(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	sizes := [][2]int{{640, 480}, {64, 64}, {13, 9}, {1, 1}, {16, 3}, {97, 101}}
	factors := []int{1, 2, 3, 4, 5, 7, 8, 16, 33}
	for _, sz := range sizes {
		img := image.NewRGBA(image.Rect(0, 0, sz[0], sz[1]))
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.UintN(256))
		}
		for _, f := range factors {
			got := Downsample(img, f)
			want := DownsampleReference(img, f)
			if ok, off := PixEqual(got, want); !ok {
				t.Fatalf("downsample %dx of %dx%d diverged at offset %d", f, sz[0], sz[1], off)
			}
		}
	}
}

func TestKernelDifferentialDownsampleSubImage(t *testing.T) {
	// Regression for the factor <= 1 stride bug: sub-image views have
	// Stride != 4*Dx, so the old whole-buffer copy sheared rows.
	c := NewCanvas(100, 80)
	c.FillRect(10, 10, 90, 70, ColorBlue)
	c.Line(0, 40, 99, 40, ColorRed)
	c.Text(20, 20, "SUB", 2, ColorBlack)
	sub := c.Image().SubImage(image.Rect(15, 10, 85, 62)).(*image.RGBA)
	for _, f := range []int{0, 1, 2, 4, 8} {
		got := Downsample(sub, f)
		want := DownsampleReference(sub, f)
		if ok, off := PixEqual(got, want); !ok {
			t.Fatalf("sub-image downsample %dx diverged at offset %d", f, off)
		}
	}
	// The factor<=1 copy must reproduce the exact source pixels.
	out := Downsample(sub, 1)
	b := sub.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if out.RGBAAt(x, y) != sub.RGBAAt(x, y) {
				t.Fatalf("factor<=1 sub-image copy wrong at (%d,%d)", x, y)
			}
		}
	}
}

func TestKernelDifferentialBuilders(t *testing.T) {
	// The shared scene builders cover tables, grids, waveforms, block
	// diagrams and annotated figures.
	scenes := []*Scene{
		NewBlockDiagram(KindDiagram, "Pipeline", []string{"IF", "ID", "EX", "MEM", "WB"}, []string{"CPI=1.3", "f=2GHz"}),
		NewTableScene(KindTable, "Truth Table", []string{"A", "B", "Y"},
			[][]string{{"0", "0", "1"}, {"0", "1", "1"}, {"1", "0", "1"}, {"1", "1", "0"}}, map[int]bool{2: true}),
		NewAnnotatedFigure(KindFigure, "Wafer Map", "defect cluster at edge", []string{"yield=91%", "D0=0.4"}),
		NewGridScene(KindDiagram, "Mesh", 4, 4, map[[2]int]string{{0, 0}: "R0", {3, 3}: "R15"}),
		NewWaveformScene("CLK/Q", map[string][]int{"clk": {0, 1, 0, 1, 0, 1}, "q": {0, 0, 1, 1, 0, 0}}, []string{"clk", "q"}),
	}
	for i, s := range scenes {
		got := Render(s)
		want := RenderReference(s)
		if ok, off := PixEqual(got, want); !ok {
			t.Fatalf("builder scene %d (%s) diverged at offset %d", i, s.Title, off)
		}
	}
}

// TestPoolRoundTrip checks the pixel pool lifecycle: a released buffer
// is reused and comes back fully re-whitened through NewCanvas.
func TestPoolRoundTrip(t *testing.T) {
	c := NewCanvas(64, 48)
	c.Fill(ColorBlack)
	img := c.Image()
	ReleaseImage(img)
	if img.Pix != nil {
		t.Fatal("ReleaseImage should nil the Pix of the released image")
	}
	c2 := NewCanvas(64, 48) // may reuse the dirty buffer
	for i, p := range c2.Image().Pix {
		if p != 255 {
			t.Fatalf("recycled canvas not re-whitened at byte %d", i)
		}
	}
	// Release of sub-image views and nil must be safe no-ops.
	ReleaseImage(nil)
	base := NewCanvas(20, 20).Image()
	sub := base.SubImage(image.Rect(2, 2, 10, 10)).(*image.RGBA)
	ReleaseImage(sub)
	if sub.Pix == nil {
		t.Fatal("sub-image view must not be poolable")
	}
}
