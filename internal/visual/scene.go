// Package visual models the visual component of a ChipVQA question.
//
// Every question in the benchmark carries a Scene: a structured
// description ("scene graph") of the figure a human would look at. The
// scene has two consumers with deliberately different views of it:
//
//   - the renderers in this package rasterise the scene to a real image
//     (schematics, waveforms, layouts, plots, tables, ...), which is what
//     a real VLM would receive; and
//   - the simulated VLM pipeline in internal/vlm, whose perception stage
//     recovers scene elements with a fidelity that depends on the model's
//     perception capability and the image resolution (LegibilityLoss).
//
// Keeping the ground-truth scene next to the rendered pixels is what lets
// the reproduction run the paper's resolution ablation mechanically: a
// downsampled image lowers the recovery probability of low-salience
// elements, which lowers Pass@1 exactly the way §IV-B reports.
package visual

import (
	"fmt"
	"slices"
)

// Kind enumerates the 12 visual content types of ChipVQA Table I.
type Kind int

// Visual content kinds, in the order of Table I of the paper.
const (
	KindSchematic Kind = iota
	KindDiagram
	KindLayout
	KindTable
	KindMixed
	KindStructure
	KindFigure
	KindCurve
	KindFlow
	KindEquations
	KindNeuralNets
	KindEquation
	numKinds
)

// NumKinds is the number of distinct visual content types.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	"schematic",
	"diagram",
	"layout",
	"table",
	"mixed",
	"structure",
	"figure",
	"curve",
	"flow",
	"equations",
	"neural nets",
	"equation",
}

// String returns the Table I name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind converts a Table I name back to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("visual: unknown kind %q", s)
}

// ElementType says what a scene element depicts. The renderer picks a
// drawing routine from it and the perception simulator assigns a default
// salience from it.
type ElementType int

// Element types understood by the renderers.
const (
	ElemGate       ElementType = iota // logic gate; Label holds the gate kind (AND, OR, ...)
	ElemTransistor                    // MOSFET; Attrs["polarity"] is nmos/pmos
	ElemResistor
	ElemCapacitor
	ElemInductor
	ElemSource // voltage/current source; Attrs["kind"]
	ElemWire
	ElemLabel   // free text annotation
	ElemValue   // numeric annotation such as "R1=1k"
	ElemBox     // block in a diagram
	ElemArrow   // directed connection
	ElemTrace   // waveform trace; Points holds samples
	ElemCell    // table cell; Attrs["row"], Attrs["col"]
	ElemRect    // layout rectangle; Attrs["layer"]
	ElemPoint   // annotated point such as a routing terminal
	ElemCurvePt // data point of a plotted curve
	ElemAxis
	ElemEquationText
)

// Element is one item in a scene graph.
type Element struct {
	Type  ElementType
	Name  string  // stable identifier within the scene
	Label string  // text the renderer draws and the encoder may recover
	X, Y  float64 // anchor position in logical canvas coordinates
	X2,
	Y2 float64 // second anchor for two-point elements (wires, arrows, rects)
	Points []Point // polyline data for traces and curves
	Attrs  map[string]string

	// Salience in (0,1]: how visually prominent the element is. Large
	// boxes and gates are near 1; small value annotations are lower.
	// The perception simulator multiplies salience into its recovery
	// probability, and resolution downsampling hits low-salience
	// elements hardest.
	Salience float64

	// Critical marks elements whose content is required to answer the
	// question. A simulated model that fails to recover any critical
	// element cannot solve the question from knowledge alone.
	Critical bool
}

// Point is a 2-D coordinate in logical canvas space.
type Point struct {
	X, Y float64
}

// Scene is the ground-truth description of a question's figure.
type Scene struct {
	Kind     Kind
	Title    string
	Width    int // logical canvas width in pixels at 1x resolution
	Height   int // logical canvas height in pixels at 1x resolution
	Elements []Element
}

// NewScene returns an empty scene of the given kind with a default
// 640x480 logical canvas.
func NewScene(kind Kind, title string) *Scene {
	return &Scene{Kind: kind, Title: title, Width: 640, Height: 480}
}

// Add appends an element, applying a default salience for its type when
// none was set, and returns the scene for chaining.
func (s *Scene) Add(e Element) *Scene {
	if e.Salience == 0 {
		e.Salience = defaultSalience(e.Type)
	}
	s.Elements = append(s.Elements, e)
	return s
}

// Grow reserves room for n more elements, so a builder that knows its
// element count fills the slice without regrowing it.
func (s *Scene) Grow(n int) *Scene {
	s.Elements = slices.Grow(s.Elements, n)
	return s
}

// AddAll appends every element in order.
func (s *Scene) AddAll(es ...Element) *Scene {
	for _, e := range es {
		s.Add(e)
	}
	return s
}

// CriticalElements returns the critical elements of the scene.
func (s *Scene) CriticalElements() []Element {
	var out []Element
	for _, e := range s.Elements {
		if e.Critical {
			out = append(out, e)
		}
	}
	return out
}

// Find returns the first element with the given name.
func (s *Scene) Find(name string) (Element, bool) {
	for _, e := range s.Elements {
		if e.Name == name {
			return e, true
		}
	}
	return Element{}, false
}

func defaultSalience(t ElementType) float64 {
	switch t {
	case ElemGate, ElemBox, ElemRect, ElemSource, ElemTransistor:
		return 0.95
	case ElemResistor, ElemCapacitor, ElemInductor, ElemTrace, ElemAxis:
		return 0.9
	case ElemWire, ElemArrow, ElemCell, ElemPoint:
		return 0.85
	case ElemLabel, ElemEquationText:
		return 0.75
	case ElemValue, ElemCurvePt:
		return 0.65
	default:
		return 0.8
	}
}

// Describe renders the scene as text, the way the agent study's vision
// tool would describe an image to a text-only designer model. The detail
// parameter in [0,1] controls how many low-salience annotations survive
// the description; 1 keeps everything.
func (s *Scene) Describe(detail float64) string {
	out := fmt.Sprintf("A %s titled %q with %d elements:", s.Kind, s.Title, len(s.Elements))
	for _, e := range s.Elements {
		if e.Salience < 1-detail {
			continue // detail lost in translation to text
		}
		out += "\n  - " + e.DescribeOne()
	}
	return out
}

// DescribeOne renders a single element as a text fragment.
func (e Element) DescribeOne() string {
	label := e.Label
	if label == "" {
		label = e.Name
	}
	switch e.Type {
	case ElemGate:
		return fmt.Sprintf("%s gate %q", e.Label, e.Name)
	case ElemTransistor:
		return fmt.Sprintf("%s transistor %q", e.Attrs["polarity"], e.Name)
	case ElemResistor:
		return fmt.Sprintf("resistor %s", label)
	case ElemCapacitor:
		return fmt.Sprintf("capacitor %s", label)
	case ElemInductor:
		return fmt.Sprintf("inductor %s", label)
	case ElemSource:
		return fmt.Sprintf("%s source %s", e.Attrs["kind"], label)
	case ElemWire:
		return fmt.Sprintf("wire %s", e.Name)
	case ElemValue:
		return fmt.Sprintf("annotation %q", e.Label)
	case ElemCell:
		return fmt.Sprintf("table cell [%s,%s]=%q", e.Attrs["row"], e.Attrs["col"], e.Label)
	case ElemRect:
		return fmt.Sprintf("rectangle on layer %s labelled %q", e.Attrs["layer"], e.Label)
	case ElemTrace:
		return fmt.Sprintf("waveform trace %s with %d samples", label, len(e.Points))
	default:
		return fmt.Sprintf("%s %q", elementTypeName(e.Type), label)
	}
}

func elementTypeName(t ElementType) string {
	switch t {
	case ElemGate:
		return "gate"
	case ElemTransistor:
		return "transistor"
	case ElemResistor:
		return "resistor"
	case ElemCapacitor:
		return "capacitor"
	case ElemInductor:
		return "inductor"
	case ElemSource:
		return "source"
	case ElemWire:
		return "wire"
	case ElemLabel:
		return "label"
	case ElemValue:
		return "value"
	case ElemBox:
		return "box"
	case ElemArrow:
		return "arrow"
	case ElemTrace:
		return "trace"
	case ElemCell:
		return "cell"
	case ElemRect:
		return "rect"
	case ElemPoint:
		return "point"
	case ElemCurvePt:
		return "curve point"
	case ElemAxis:
		return "axis"
	case ElemEquationText:
		return "equation"
	default:
		return "element"
	}
}
