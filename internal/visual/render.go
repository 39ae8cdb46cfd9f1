package visual

import (
	"image"
	"image/color"
	"math"
)

// raster is the primitive set the element renderers draw against.
// *Canvas is the production implementation (the span kernel); the
// differential tests in reference_test.go provide a naive per-pixel
// implementation of the same interface, so both kernels rasterise scenes
// through the identical drawElement code and can be compared
// byte-for-byte.
type raster interface {
	Line(x0, y0, x1, y1 int, col color.RGBA)
	Rect(x0, y0, x1, y1 int, col color.RGBA)
	FillRect(x0, y0, x1, y1 int, col color.RGBA)
	Circle(cx, cy, r int, col color.RGBA)
	FillCircle(cx, cy, r int, col color.RGBA)
	Arc(cx, cy, r int, a0, a1 float64, col color.RGBA)
	Polyline(pts []Point, col color.RGBA)
	Arrow(x0, y0, x1, y1 int, col color.RGBA)
	Text(x, y int, s string, scale int, col color.RGBA)
}

// Render rasterises a scene to an RGBA image at the scene's logical
// resolution. Every element type has a drawing routine, so the output is
// a real picture of the figure — the same picture a human (or a real VLM)
// would be handed. The backing buffer comes from the pixel pool; the
// caller owns the result and may hand it back with ReleaseImage once
// done.
func Render(s *Scene) *image.RGBA {
	c := NewCanvas(s.Width, s.Height)
	renderScene(c, s)
	return c.Image()
}

// renderScene draws the title and every element on any raster surface.
func renderScene(c raster, s *Scene) {
	// Title along the top edge.
	if s.Title != "" {
		c.Text(8, 4, s.Title, 2, ColorBlack)
	}
	for _, e := range s.Elements {
		drawElement(c, e)
	}
}

func drawElement(c raster, e Element) {
	x, y := int(e.X), int(e.Y)
	x2, y2 := int(e.X2), int(e.Y2)
	switch e.Type {
	case ElemGate:
		drawGate(c, e)
	case ElemTransistor:
		drawTransistor(c, e)
	case ElemResistor:
		drawResistor(c, e)
	case ElemCapacitor:
		drawCapacitor(c, e)
	case ElemInductor:
		drawInductor(c, e)
	case ElemSource:
		drawSource(c, e)
	case ElemWire:
		c.Line(x, y, x2, y2, ColorBlack)
	case ElemLabel:
		c.Text(x, y, e.Label, 2, ColorBlack)
	case ElemValue:
		c.Text(x, y, e.Label, 1, ColorBlue)
	case ElemBox:
		c.Rect(x, y, x2, y2, ColorBlack)
		if e.Label != "" {
			tw := TextWidth(e.Label, 1)
			c.Text((x+x2)/2-tw/2, (y+y2)/2-4, e.Label, 1, ColorBlack)
		}
	case ElemArrow:
		c.Arrow(x, y, x2, y2, ColorBlack)
		if e.Label != "" {
			c.Text((x+x2)/2+3, (y+y2)/2-9, e.Label, 1, ColorGreen)
		}
	case ElemTrace:
		c.Polyline(e.Points, ColorBlue)
		if e.Label != "" {
			c.Text(x, y, e.Label, 1, ColorBlue)
		}
	case ElemCell:
		c.Rect(x, y, x2, y2, ColorBlack)
		if e.Label != "" {
			c.Text(x+3, (y+y2)/2-4, e.Label, 1, ColorBlack)
		}
	case ElemRect:
		col := LayerColor(e.Attrs["layer"])
		c.FillRect(x, y, x2, y2, col)
		c.Rect(x, y, x2, y2, ColorBlack)
		if e.Label != "" {
			c.Text(x+2, y+2, e.Label, 1, ColorBlack)
		}
	case ElemPoint:
		c.FillCircle(x, y, 3, ColorRed)
		if e.Label != "" {
			c.Text(x+5, y-9, e.Label, 1, ColorBlack)
		}
	case ElemCurvePt:
		c.FillCircle(x, y, 2, ColorGreen)
	case ElemAxis:
		c.Arrow(x, y, x2, y2, ColorBlack)
		if e.Label != "" {
			c.Text(x2+4, y2, e.Label, 1, ColorBlack)
		}
	case ElemEquationText:
		c.Text(x, y, e.Label, 2, ColorBlack)
	}
}

// drawGate draws a distinct shape per logic-gate kind so the gate type is
// visually identifiable, matching how schematics are read.
func drawGate(c raster, e Element) {
	x, y := int(e.X), int(e.Y) // top-left of a nominal 40x30 gate body
	const w, h = 40, 30
	kind := e.Label
	switch kind {
	case "AND", "NAND":
		c.Line(x, y, x, y+h, ColorBlack)
		c.Line(x, y, x+w/2, y, ColorBlack)
		c.Line(x, y+h, x+w/2, y+h, ColorBlack)
		c.Arc(x+w/2, y+h/2, h/2, -math.Pi/2, math.Pi/2, ColorBlack)
	case "OR", "NOR", "XOR", "XNOR":
		c.Arc(x-h/2, y+h/2, h/2+h/4, -0.9, 0.9, ColorBlack)
		c.Line(x+4, y, x+w/2, y, ColorBlack)
		c.Line(x+4, y+h, x+w/2, y+h, ColorBlack)
		c.Arc(x+w/2, y+h/2, h/2, -math.Pi/2, math.Pi/2, ColorBlack)
		if kind == "XOR" || kind == "XNOR" {
			c.Arc(x-h/2-5, y+h/2, h/2+h/4, -0.9, 0.9, ColorBlack)
		}
	case "NOT", "BUF":
		c.Line(x, y, x, y+h, ColorBlack)
		c.Line(x, y, x+w-8, y+h/2, ColorBlack)
		c.Line(x, y+h, x+w-8, y+h/2, ColorBlack)
	default: // generic rectangular block (DFF, MUX, ...)
		c.Rect(x, y, x+w, y+h, ColorBlack)
	}
	if kind == "NAND" || kind == "NOR" || kind == "XNOR" || kind == "NOT" {
		c.Circle(x+w+3-4, y+h/2, 3, ColorBlack) // inversion bubble
	}
	name := e.Name
	if name != "" {
		c.Text(x+4, y+h+4, name, 1, ColorBlack)
	}
	if kind != "" && (kind != "AND" && kind != "OR" && kind != "NOT") {
		c.Text(x+4, y-10, kind, 1, ColorGray)
	}
}

func drawTransistor(c raster, e Element) {
	x, y := int(e.X), int(e.Y) // gate contact position
	pmos := e.Attrs["polarity"] == "pmos"
	// Gate bar and channel bar.
	c.Line(x, y-10, x, y+10, ColorBlack)
	c.Line(x+6, y-12, x+6, y+12, ColorBlack)
	// Drain/source stubs.
	c.Line(x+6, y-12, x+20, y-12, ColorBlack)
	c.Line(x+20, y-12, x+20, y-24, ColorBlack)
	c.Line(x+6, y+12, x+20, y+12, ColorBlack)
	c.Line(x+20, y+12, x+20, y+24, ColorBlack)
	// Gate lead.
	if pmos {
		c.Circle(x-5, y, 3, ColorBlack)
		c.Line(x-8, y, x-20, y, ColorBlack)
	} else {
		c.Line(x, y, x-20, y, ColorBlack)
	}
	if e.Name != "" {
		c.Text(x+24, y-4, e.Name, 1, ColorBlack)
	}
}

func drawResistor(c raster, e Element) {
	// Zigzag between (X,Y) and (X2,Y2).
	x0, y0 := e.X, e.Y
	x1, y1 := e.X2, e.Y2
	const segs = 6
	dx, dy := (x1-x0)/segs, (y1-y0)/segs
	// Perpendicular unit * amplitude.
	length := math.Hypot(x1-x0, y1-y0)
	if length == 0 {
		length = 1
	}
	px, py := -(y1-y0)/length*5, (x1-x0)/length*5
	prevX, prevY := x0, y0
	for i := 1; i < segs; i++ {
		s := 1.0
		if i%2 == 0 {
			s = -1.0
		}
		nx := x0 + dx*float64(i) + s*px
		ny := y0 + dy*float64(i) + s*py
		c.Line(int(prevX), int(prevY), int(nx), int(ny), ColorBlack)
		prevX, prevY = nx, ny
	}
	c.Line(int(prevX), int(prevY), int(x1), int(y1), ColorBlack)
	if e.Label != "" {
		c.Text(int((x0+x1)/2)+6, int((y0+y1)/2)-10, e.Label, 1, ColorBlack)
	}
}

func drawCapacitor(c raster, e Element) {
	x0, y0 := int(e.X), int(e.Y)
	x1, y1 := int(e.X2), int(e.Y2)
	mx, my := (x0+x1)/2, (y0+y1)/2
	// Leads.
	c.Line(x0, y0, mx-3, my, ColorBlack)
	c.Line(mx+3, my, x1, y1, ColorBlack)
	// Plates perpendicular to the lead direction.
	ang := math.Atan2(float64(y1-y0), float64(x1-x0)) + math.Pi/2
	const plate = 10.0
	for _, off := range []int{-3, 3} {
		cx := float64(mx + off)
		cy := float64(my)
		c.Line(int(cx-plate*math.Cos(ang)), int(cy-plate*math.Sin(ang)),
			int(cx+plate*math.Cos(ang)), int(cy+plate*math.Sin(ang)), ColorBlack)
	}
	if e.Label != "" {
		c.Text(mx+6, my-12, e.Label, 1, ColorBlack)
	}
}

func drawInductor(c raster, e Element) {
	x0, y0 := int(e.X), int(e.Y)
	x1 := int(e.X2)
	// Horizontal coil of four bumps.
	step := (x1 - x0) / 4
	if step < 4 {
		step = 4
	}
	for i := 0; i < 4; i++ {
		c.Arc(x0+step/2+i*step, y0, step/2, math.Pi, 2*math.Pi, ColorBlack)
	}
	if e.Label != "" {
		c.Text((x0+x1)/2, y0-14, e.Label, 1, ColorBlack)
	}
}

func drawSource(c raster, e Element) {
	x, y := int(e.X), int(e.Y)
	const r = 12
	c.Circle(x, y, r, ColorBlack)
	switch e.Attrs["kind"] {
	case "current":
		c.Arrow(x, y+r-5, x, y-r+5, ColorBlack)
	default: // voltage
		c.Text(x-2, y-r+2, "+", 1, ColorBlack)
		c.Text(x-2, y+2, "-", 1, ColorBlack)
	}
	if e.Label != "" {
		c.Text(x+r+3, y-4, e.Label, 1, ColorBlack)
	}
}
