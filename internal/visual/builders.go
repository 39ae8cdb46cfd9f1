package visual

import (
	"strconv"
	"sync/atomic"
)

// NewBlockDiagram builds a left-to-right chain of labelled boxes joined
// by arrows, with optional annotation lines below — the workhorse for
// architecture and flow figures.
func NewBlockDiagram(kind Kind, title string, blocks []string, annotations []string) *Scene {
	s := NewScene(kind, title).Grow(2*len(blocks) + len(annotations))
	const bw, bh = 100.0, 50.0
	x0, y0 := 60.0, 180.0
	for i, b := range blocks {
		x := x0 + float64(i)*(bw+50)
		s.Add(Element{
			Type: ElemBox, Name: "b" + strconv.Itoa(i), Label: b,
			X: x, Y: y0, X2: x + bw, Y2: y0 + bh, Critical: true,
		})
		if i > 0 {
			s.Add(Element{
				Type: ElemArrow, Name: "a" + strconv.Itoa(i),
				X: x - 50, Y: y0 + bh/2, X2: x, Y2: y0 + bh/2,
			})
		}
	}
	for i, a := range annotations {
		s.Add(Element{
			Type: ElemValue, Name: "ann" + strconv.Itoa(i), Label: a,
			X: 70, Y: 290 + float64(i)*26, Salience: 0.65, Critical: true,
		})
	}
	return s
}

// NewTableScene builds a rows x cols table of cells; header row first.
// Cells in markCritical columns (by index) are flagged critical.
func NewTableScene(kind Kind, title string, header []string, rows [][]string, criticalCols map[int]bool) *Scene {
	cells := len(header)
	for _, row := range rows {
		cells += len(row)
	}
	s := NewScene(kind, title).Grow(cells)
	const cw, ch = 110.0, 26.0
	x0, y0 := 50.0, 60.0
	for c, h := range header {
		col := strconv.Itoa(c)
		s.Add(Element{
			Type: ElemCell, Name: "h" + col, Label: h,
			X: x0 + float64(c)*cw, Y: y0, X2: x0 + float64(c+1)*cw, Y2: y0 + ch,
			Attrs: CellAttrs(-1, c), Salience: 0.9,
		})
	}
	for r, row := range rows {
		y := y0 + float64(r+1)*ch
		rs := strconv.Itoa(r)
		for c, cell := range row {
			col := strconv.Itoa(c)
			s.Add(Element{
				Type: ElemCell, Name: "c" + rs + "-" + col, Label: cell,
				X: x0 + float64(c)*cw, Y: y, X2: x0 + float64(c+1)*cw, Y2: y + ch,
				Attrs:    CellAttrs(r, c),
				Salience: 0.7, Critical: criticalCols[c],
			})
		}
	}
	s.Height = int(y0) + (len(rows)+2)*int(ch) + 40
	return s
}

// CellAttrs returns the attributes of the table cell at (row, col):
// {"row": row, "col": col} in decimal, where a negative row is the
// header row "h" and a negative col the "out" column. Every cell at the
// same (row, col) of a small table gets the same map, built on first
// use, so a generated table allocates no map per cell; the map is
// read-only, as Element.Attrs are. Cells outside the shared range get a
// fresh map with the same contents.
func CellAttrs(row, col int) map[string]string {
	if uint(row+1) >= cellAttrRows || uint(col+1) >= cellAttrCols {
		return newCellAttrs(row, col)
	}
	p := &cellAttrs[row+1][col+1]
	if m := p.Load(); m != nil {
		return *m
	}
	m := newCellAttrs(row, col)
	if p.CompareAndSwap(nil, &m) {
		return m
	}
	return *p.Load()
}

// cellAttrRows and cellAttrCols bound the cells CellAttrs shares, the
// header row and "out" column included: a 5-variable truth table and
// every table the generators build fit.
const cellAttrRows, cellAttrCols = 33, 17

// cellAttrs holds CellAttrs' shared maps, indexed by (row+1, col+1).
// A slot is set once, by compare-and-swap, so concurrent first calls
// agree on one map without a lock.
var cellAttrs [cellAttrRows][cellAttrCols]atomic.Pointer[map[string]string]

func newCellAttrs(row, col int) map[string]string {
	r, c := "h", "out"
	if row >= 0 {
		r = strconv.Itoa(row)
	}
	if col >= 0 {
		c = strconv.Itoa(col)
	}
	return map[string]string{"row": r, "col": c}
}

// NewAnnotatedFigure builds a figure-style scene: a big picture box plus
// critical annotation labels (used where the paper's benchmark shows a
// photograph or rendered structure).
func NewAnnotatedFigure(kind Kind, title string, caption string, annotations []string) *Scene {
	s := NewScene(kind, title).Grow(1 + len(annotations))
	s.Add(Element{
		Type: ElemBox, Name: "figure", Label: caption,
		X: 80, Y: 80, X2: 560, Y2: 320, Critical: true,
	})
	for i, a := range annotations {
		s.Add(Element{
			Type: ElemValue, Name: "ann" + strconv.Itoa(i), Label: a,
			X: 100, Y: 340 + float64(i)*26, Salience: 0.65, Critical: true,
		})
	}
	return s
}

// NewGridScene builds a w x h grid of nodes (small boxes) with optional
// highlighted cells — mesh/torus topologies and layout fabrics.
func NewGridScene(kind Kind, title string, w, h int, highlight map[[2]int]string) *Scene {
	s := NewScene(kind, title).Grow(w * h)
	const cell = 56.0
	x0, y0 := 70.0, 70.0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			label := ""
			critical := false
			if hl, ok := highlight[[2]int{x, y}]; ok {
				label = hl
				critical = true
			}
			s.Add(Element{
				Type: ElemBox, Name: "n" + strconv.Itoa(x) + "-" + strconv.Itoa(y), Label: label,
				X: x0 + float64(x)*cell, Y: y0 + float64(y)*cell,
				X2: x0 + float64(x)*cell + 40, Y2: y0 + float64(y)*cell + 40,
				Critical: critical,
			})
		}
	}
	return s
}

// NewWaveformScene builds a stack of named digital waveforms, each a
// sequence of bits drawn as a square wave.
func NewWaveformScene(title string, traces map[string][]int, order []string) *Scene {
	s := NewScene(KindDiagram, title).Grow(len(order))
	y := 120.0
	for _, name := range order {
		bits := traces[name]
		var pts []Point
		x := 80.0
		const step = 48.0
		level := func(b int) float64 {
			if b != 0 {
				return y - 28
			}
			return y
		}
		for i, b := range bits {
			if i == 0 {
				pts = append(pts, Point{X: x, Y: level(b)})
			} else if bits[i-1] != b {
				pts = append(pts, Point{X: x, Y: level(bits[i-1])}, Point{X: x, Y: level(b)})
			}
			x += step
			pts = append(pts, Point{X: x, Y: level(b)})
		}
		s.Add(Element{
			Type: ElemTrace, Name: "tr-" + name, Label: name,
			X: 30, Y: y - 20, Points: pts, Critical: true,
		})
		y += 80
	}
	return s
}
