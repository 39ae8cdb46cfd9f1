package visual

import (
	"image"
	"image/color"
	"math"
)

// Canvas is a simple raster drawing surface backed by an RGBA image.
// It provides the primitives the scene renderers need: lines, rectangles,
// circles, arcs and bitmap text. Everything is drawn in device pixels.
//
// The drawing kernel is span-based: every primitive clips against the
// canvas bounds once, then writes whole rows (or row segments) directly
// into the backing Pix buffer. The per-pixel bounds check of the naive
// kernel survives only in Set and in the Bresenham path for diagonal
// lines; the differential tests in reference_test.go prove the span
// kernel's output is byte-identical to the naive one.
type Canvas struct {
	img *image.RGBA
}

// Standard drawing colors used by the renderers.
var (
	ColorBlack = color.RGBA{0, 0, 0, 255}
	ColorWhite = color.RGBA{255, 255, 255, 255}
	ColorGray  = color.RGBA{128, 128, 128, 255}
	ColorRed   = color.RGBA{200, 30, 30, 255}
	ColorBlue  = color.RGBA{30, 60, 200, 255}
	ColorGreen = color.RGBA{20, 140, 60, 255}

	// Layer colors for layout rendering, indexed by layer name.
	layerColors = map[string]color.RGBA{
		"diffusion": {60, 160, 60, 255},
		"poly":      {200, 60, 60, 255},
		"metal1":    {60, 90, 200, 255},
		"metal2":    {170, 80, 200, 255},
		"contact":   {40, 40, 40, 255},
		"nwell":     {220, 210, 120, 255},
		"via":       {90, 90, 90, 255},
		"macro":     {150, 150, 180, 255},
		"cell":      {120, 170, 210, 255},
		"blockage":  {220, 120, 120, 255},
	}
)

// NewCanvas returns a white canvas of the given size. Width and height
// are clamped to at least 1 pixel.
func NewCanvas(w, h int) *Canvas {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	c := &Canvas{img: img}
	c.Fill(ColorWhite)
	return c
}

// Image exposes the underlying RGBA image.
func (c *Canvas) Image() *image.RGBA { return c.img }

// rowSpan returns the raw bytes of row y covering columns [x0, x1).
// Callers must pass in-bounds coordinates.
func (c *Canvas) rowSpan(x0, x1, y int) []uint8 {
	i := c.img.PixOffset(x0, y)
	return c.img.Pix[i : i+4*(x1-x0)]
}

// hspan clips the inclusive column range [x0, x1] on row y against the
// bounds once and returns the raw bytes of the surviving span (nil when
// the row or the whole range is outside).
func (c *Canvas) hspan(x0, x1, y int) []uint8 {
	b := c.img.Bounds()
	if y < b.Min.Y || y >= b.Max.Y {
		return nil
	}
	if x0 < b.Min.X {
		x0 = b.Min.X
	}
	if x1 >= b.Max.X {
		x1 = b.Max.X - 1
	}
	if x0 > x1 {
		return nil
	}
	return c.rowSpan(x0, x1+1, y)
}

// paintSpan writes col across a raw RGBA span (length divisible by 4):
// seed the first pixel, then double with copy.
func paintSpan(p []uint8, col color.RGBA) {
	if len(p) == 0 {
		return
	}
	p[0], p[1], p[2], p[3] = col.R, col.G, col.B, col.A
	for n := 4; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// Fill paints the whole canvas with a color: one painted prototype row,
// copied into every other row.
func (c *Canvas) Fill(col color.RGBA) {
	b := c.img.Bounds()
	if b.Empty() {
		return
	}
	proto := c.rowSpan(b.Min.X, b.Max.X, b.Min.Y)
	paintSpan(proto, col)
	for y := b.Min.Y + 1; y < b.Max.Y; y++ {
		copy(c.rowSpan(b.Min.X, b.Max.X, y), proto)
	}
}

// Set paints one pixel, ignoring out-of-bounds coordinates.
func (c *Canvas) Set(x, y int, col color.RGBA) {
	if image.Pt(x, y).In(c.img.Bounds()) {
		c.img.SetRGBA(x, y, col)
	}
}

// Line draws a 1-pixel line. Horizontal and vertical lines — the
// dominant case in schematics (wires, gate bodies, table rules) — clip
// to bounds once and write the span directly; everything else falls to
// Bresenham.
func (c *Canvas) Line(x0, y0, x1, y1 int, col color.RGBA) {
	switch {
	case y0 == y1:
		x0, x1 = ordered(x0, x1)
		paintSpan(c.hspan(x0, x1, y0), col)
	case x0 == x1:
		c.vline(x0, y0, y1, col)
	default:
		c.bresenham(x0, y0, x1, y1, col)
	}
}

// vline writes a clipped vertical run of single pixels, stepping by
// Stride instead of re-deriving the offset per pixel.
func (c *Canvas) vline(x, y0, y1 int, col color.RGBA) {
	b := c.img.Bounds()
	if x < b.Min.X || x >= b.Max.X {
		return
	}
	y0, y1 = ordered(y0, y1)
	if y0 < b.Min.Y {
		y0 = b.Min.Y
	}
	if y1 >= b.Max.Y {
		y1 = b.Max.Y - 1
	}
	if y0 > y1 {
		return
	}
	pix, stride := c.img.Pix, c.img.Stride
	i := c.img.PixOffset(x, y0)
	for y := y0; y <= y1; y++ {
		pix[i], pix[i+1], pix[i+2], pix[i+3] = col.R, col.G, col.B, col.A
		i += stride
	}
}

// bresenham is the general diagonal path (Bresenham's algorithm).
func (c *Canvas) bresenham(x0, y0, x1, y1 int, col color.RGBA) {
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

// Rect draws the outline of a rectangle.
func (c *Canvas) Rect(x0, y0, x1, y1 int, col color.RGBA) {
	x0, x1 = ordered(x0, x1)
	y0, y1 = ordered(y0, y1)
	c.Line(x0, y0, x1, y0, col)
	c.Line(x1, y0, x1, y1, col)
	c.Line(x1, y1, x0, y1, col)
	c.Line(x0, y1, x0, y0, col)
}

// FillRect paints a filled rectangle: clip the rect once, paint one
// prototype row, copy it into the remaining rows.
func (c *Canvas) FillRect(x0, y0, x1, y1 int, col color.RGBA) {
	x0, x1 = ordered(x0, x1)
	y0, y1 = ordered(y0, y1)
	b := c.img.Bounds()
	if y0 < b.Min.Y {
		y0 = b.Min.Y
	}
	if y1 >= b.Max.Y {
		y1 = b.Max.Y - 1
	}
	if y0 > y1 {
		return
	}
	proto := c.hspan(x0, x1, y0)
	if proto == nil {
		return
	}
	paintSpan(proto, col)
	for y := y0 + 1; y <= y1; y++ {
		copy(c.hspan(x0, x1, y), proto)
	}
}

// Circle draws a circle outline with the midpoint algorithm.
func (c *Canvas) Circle(cx, cy, r int, col color.RGBA) {
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

// FillCircle paints a filled circle as one chord span per row instead of
// testing every pixel of the bounding square.
func (c *Canvas) FillCircle(cx, cy, r int, col color.RGBA) {
	rr := r * r
	for dy := -r; dy <= r; dy++ {
		s := isqrt(rr - dy*dy)
		paintSpan(c.hspan(cx-s, cx+s, cy+dy), col)
	}
}

// isqrt returns the largest s >= 0 with s*s <= v (0 for negative v). The
// float seed is exact for every chord the renderer meets, but the
// correction loops make the contract independent of rounding.
func isqrt(v int) int {
	if v <= 0 {
		return 0
	}
	s := int(math.Sqrt(float64(v)))
	for (s+1)*(s+1) <= v {
		s++
	}
	for s*s > v {
		s--
	}
	return s
}

// Arc draws a circular arc from a0 to a1 radians (counterclockwise in
// canvas coordinates, i.e. y grows downward).
func (c *Canvas) Arc(cx, cy, r int, a0, a1 float64, col color.RGBA) {
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

// Polyline draws connected line segments through the points.
func (c *Canvas) Polyline(pts []Point, col color.RGBA) {
	for i := 1; i < len(pts); i++ {
		c.Line(int(pts[i-1].X), int(pts[i-1].Y), int(pts[i].X), int(pts[i].Y), col)
	}
}

// Arrow draws a line with an arrowhead at the destination.
func (c *Canvas) Arrow(x0, y0, x1, y1 int, col color.RGBA) {
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

// Text draws a string at (x, y) using the embedded 5x7 bitmap font at the
// given integer scale (1 = 5x7 pixels per glyph).
func (c *Canvas) Text(x, y int, s string, scale int, col color.RGBA) {
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

// TextWidth reports the pixel width of a string drawn at the given scale.
func TextWidth(s string, scale int) int {
	if scale < 1 {
		scale = 1
	}
	max, cur := 0, 0
	for _, r := range s {
		if r == '\n' {
			if cur > max {
				max = cur
			}
			cur = 0
			continue
		}
		cur += (glyphW + 1) * scale
	}
	if cur > max {
		max = cur
	}
	return max
}

// glyphRowSpans pre-expands every possible 5-bit glyph row into its runs
// of consecutive set bits, as [start, end) column pairs. A glyph row then
// rasterises as a handful of span paints instead of a scale*scale Set
// loop per set bit.
var glyphRowSpans [1 << glyphW][][2]int

func init() {
	for bits := range glyphRowSpans {
		start := -1
		for colIdx := 0; colIdx < glyphW; colIdx++ {
			set := bits&(1<<(glyphW-1-colIdx)) != 0
			switch {
			case set && start < 0:
				start = colIdx
			case !set && start >= 0:
				glyphRowSpans[bits] = append(glyphRowSpans[bits], [2]int{start, colIdx})
				start = -1
			}
		}
		if start >= 0 {
			glyphRowSpans[bits] = append(glyphRowSpans[bits], [2]int{start, glyphW})
		}
	}
}

func (c *Canvas) glyph(x, y int, r rune, scale int, col color.RGBA) {
	g, ok := font5x7[r]
	if !ok {
		g = font5x7['?']
	}
	for row := 0; row < glyphH; row++ {
		spans := glyphRowSpans[g[row]&(1<<glyphW-1)]
		if len(spans) == 0 {
			continue
		}
		for sy := 0; sy < scale; sy++ {
			yy := y + row*scale + sy
			for _, sp := range spans {
				paintSpan(c.hspan(x+sp[0]*scale, x+sp[1]*scale-1, yy), col)
			}
		}
	}
}

// LayerColor returns the render color for a layout layer name, defaulting
// to gray for unknown layers.
func LayerColor(layer string) color.RGBA {
	if c, ok := layerColors[layer]; ok {
		return c
	}
	return ColorGray
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func ordered(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}
