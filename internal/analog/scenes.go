package analog

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/visual"
)

// ResistorNetworkScene draws a ladder of labelled resistors with a
// driving source; the value annotations are the critical content.
func ResistorNetworkScene(title string, source string, labels []string) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, title).Grow(len(labels) + 2)
	s.Add(visual.Element{
		Type: visual.ElemSource, Name: "Vs", Label: source,
		X: 80, Y: 240, Attrs: map[string]string{"kind": "voltage"},
		Salience: 0.9, Critical: source != "",
	})
	x := 150.0
	for i, l := range labels {
		horizontal := i%2 == 0
		if horizontal {
			s.Add(visual.Element{
				Type: visual.ElemResistor, Name: "R" + strconv.Itoa(i+1), Label: l,
				X: x, Y: 160, X2: x + 90, Y2: 160,
				Salience: 0.68, Critical: true,
			})
			x += 110
		} else {
			s.Add(visual.Element{
				Type: visual.ElemResistor, Name: "R" + strconv.Itoa(i+1), Label: l,
				X: x, Y: 160, X2: x, Y2: 280,
				Salience: 0.68, Critical: true,
			})
			x += 40
		}
	}
	s.Add(visual.Element{
		Type: visual.ElemWire, Name: "gnd-rail", X: 80, Y: 340, X2: x, Y2: 340,
	})
	return s
}

// AmplifierScene draws a single-transistor amplifier stage with its bias
// elements and annotated device parameters.
func AmplifierScene(title, topology string, params []string) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, title).Grow(len(params) + 5)
	s.Add(visual.Element{
		Type: visual.ElemTransistor, Name: "M1",
		X: 300, Y: 220, Attrs: map[string]string{"polarity": "nmos"},
		Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemLabel, Name: "topology", Label: topology,
		X: 60, Y: 60, Salience: 0.85, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemResistor, Name: "Rload", Label: "RD",
		X: 320, Y: 100, X2: 320, Y2: 190, Salience: 0.8,
	})
	s.Add(visual.Element{
		Type: visual.ElemWire, Name: "vdd", X: 240, Y: 100, X2: 400, Y2: 100,
	})
	s.Add(visual.Element{
		Type: visual.ElemSource, Name: "vin", Label: "vin",
		X: 180, Y: 260, Attrs: map[string]string{"kind": "voltage"},
	})
	for i, p := range params {
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: "param" + strconv.Itoa(i), Label: p,
			X: 440, Y: 140 + float64(i)*26, Salience: 0.65, Critical: true,
		})
	}
	return s
}

// OpAmpScene draws an op-amp with two feedback resistors annotated.
func OpAmpScene(title string, r1Label, r2Label string, inverting bool) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, title)
	// Triangle body drawn as a generic gate box with label.
	s.Add(visual.Element{
		Type: visual.ElemGate, Name: "opamp", Label: "OPAMP",
		X: 280, Y: 200, Critical: true,
	})
	cfg := "non-inverting"
	if inverting {
		cfg = "inverting"
	}
	s.Add(visual.Element{
		Type: visual.ElemLabel, Name: "cfg", Label: cfg + " configuration",
		X: 60, Y: 60, Salience: 0.8, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemResistor, Name: "R1", Label: r1Label,
		X: 120, Y: 215, X2: 260, Y2: 215, Salience: 0.68, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemResistor, Name: "R2", Label: r2Label,
		X: 250, Y: 140, X2: 390, Y2: 140, Salience: 0.68, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemWire, Name: "fb", X: 390, Y: 140, X2: 390, Y2: 215,
	})
	s.Add(visual.Element{
		Type: visual.ElemArrow, Name: "out", X: 330, Y: 215, X2: 430, Y2: 215, Label: "vout",
	})
	return s
}

// BodeScene draws magnitude (and optionally phase) Bode data as a curve
// plot with annotated axis ticks; the plotted break points are critical.
func BodeScene(title string, pts []BodePoint, annotations []string) *visual.Scene {
	s := visual.NewScene(visual.KindCurve, title)
	s.Add(visual.Element{Type: visual.ElemAxis, Name: "x", Label: "w (rad/s, log)",
		X: 60, Y: 380, X2: 580, Y2: 380})
	s.Add(visual.Element{Type: visual.ElemAxis, Name: "y", Label: "dB",
		X: 60, Y: 380, X2: 60, Y2: 60})
	if len(pts) > 1 {
		// Map log(omega) to x and magnitude to y.
		wLo, wHi := pts[0].Omega, pts[len(pts)-1].Omega
		magLo, magHi := pts[0].MagDB, pts[0].MagDB
		for _, p := range pts {
			if p.MagDB < magLo {
				magLo = p.MagDB
			}
			if p.MagDB > magHi {
				magHi = p.MagDB
			}
		}
		if magHi == magLo {
			magHi = magLo + 1
		}
		var poly []visual.Point
		for _, p := range pts {
			fx := log10(p.Omega/wLo) / log10(wHi/wLo)
			fy := (p.MagDB - magLo) / (magHi - magLo)
			poly = append(poly, visual.Point{X: 60 + fx*520, Y: 380 - fy*300})
		}
		s.Add(visual.Element{
			Type: visual.ElemTrace, Name: "mag", Label: "|H| dB",
			X: 70, Y: 70, Points: poly, Critical: true,
		})
	}
	for i, a := range annotations {
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: fmt.Sprintf("ann%d", i), Label: a,
			X: 340, Y: 80 + float64(i)*24, Salience: 0.65, Critical: true,
		})
	}
	return s
}

// BlockDiagramScene draws labelled blocks left to right with arrows; used
// for feedback loops, ADC pipelines and PLLs.
func BlockDiagramScene(title string, blocks []string, annotations []string) *visual.Scene {
	s := visual.NewScene(visual.KindDiagram, title).Grow(2*len(blocks) + len(annotations))
	const bw, bh = 100, 50
	x0, y0 := 60.0, 180.0
	for i, b := range blocks {
		x := x0 + float64(i)*(bw+50)
		s.Add(visual.Element{
			Type: visual.ElemBox, Name: "b" + strconv.Itoa(i), Label: b,
			X: x, Y: y0, X2: x + bw, Y2: y0 + bh, Critical: true,
		})
		if i > 0 {
			s.Add(visual.Element{
				Type: visual.ElemArrow, Name: "a" + strconv.Itoa(i),
				X: x - 50, Y: y0 + bh/2, X2: x, Y2: y0 + bh/2,
			})
		}
	}
	for i, a := range annotations {
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: "ann" + strconv.Itoa(i), Label: a,
			X: 80, Y: 300 + float64(i)*26, Salience: 0.65, Critical: true,
		})
	}
	return s
}

// EquationScene draws one or more equations as a figure.
func EquationScene(kind visual.Kind, title string, lines []string) *visual.Scene {
	s := visual.NewScene(kind, title)
	for i, l := range lines {
		s.Add(visual.Element{
			Type: visual.ElemEquationText, Name: fmt.Sprintf("eq%d", i), Label: l,
			X: 60, Y: 100 + float64(i)*60, Salience: 0.8, Critical: true,
		})
	}
	return s
}

// MixedScene combines a schematic body with a parameter table, the
// "mixed" visual type of Table I.
func MixedScene(title string, schematicLabel string, tableRows [][2]string) *visual.Scene {
	s := visual.NewScene(visual.KindMixed, title)
	s.Add(visual.Element{
		Type: visual.ElemTransistor, Name: "M1",
		X: 200, Y: 180, Attrs: map[string]string{"polarity": "nmos"}, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemLabel, Name: "desc", Label: schematicLabel,
		X: 60, Y: 60, Salience: 0.85, Critical: true,
	})
	const cw, ch = 130, 26
	x0, y0 := 360.0, 140.0
	for r, row := range tableRows {
		for c := 0; c < 2; c++ {
			s.Add(visual.Element{
				Type: visual.ElemCell, Name: fmt.Sprintf("t%d-%d", r, c), Label: row[c],
				X: x0 + float64(c)*cw, Y: y0 + float64(r)*ch,
				X2: x0 + float64(c+1)*cw, Y2: y0 + float64(r+1)*ch,
				Attrs:    map[string]string{"row": fmt.Sprint(r), "col": fmt.Sprint(c)},
				Salience: 0.68, Critical: c == 1,
			})
		}
	}
	return s
}

func log10(x float64) float64 { return math.Log10(x) }
