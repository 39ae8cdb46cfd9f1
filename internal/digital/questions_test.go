package digital

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/visual"
)

func TestGenerateComposition(t *testing.T) {
	qs := Generate()
	if len(qs) != 35 {
		t.Fatalf("generated %d questions, want 35", len(qs))
	}
	kinds := map[visual.Kind]int{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
		if q.Category != dataset.Digital {
			t.Errorf("%s: category %v", q.ID, q.Category)
		}
		if q.Type != dataset.MultipleChoice {
			t.Errorf("%s: Digital questions are all multiple choice (§III-B1)", q.ID)
		}
		kinds[q.Visual.Kind]++
	}
	want := map[visual.Kind]int{
		visual.KindSchematic:  20,
		visual.KindTable:      6,
		visual.KindDiagram:    6,
		visual.KindEquations:  2,
		visual.KindNeuralNets: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("visual %s: %d questions, want %d", k, kinds[k], n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(), Generate()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Prompt != b[i].Prompt ||
			a[i].Golden.Text != b[i].Golden.Text || a[i].Golden.Choice != b[i].Golden.Choice {
			t.Fatalf("question %d differs between runs", i)
		}
		for j := range a[i].Choices {
			if a[i].Choices[j] != b[i].Choices[j] {
				t.Fatalf("%s: choice %d differs between runs", a[i].ID, j)
			}
		}
	}
}

func TestChoicesDistinct(t *testing.T) {
	for _, q := range Generate() {
		seen := make(map[string]bool)
		for _, c := range q.Choices {
			if c == "" {
				t.Errorf("%s: empty option", q.ID)
			}
			if seen[c] {
				t.Errorf("%s: duplicate option %q", q.ID, c)
			}
			seen[c] = true
		}
	}
}

func TestExpressionDistractorsNotEquivalent(t *testing.T) {
	// For every expression-answer question, the three distractors must
	// not be functionally equivalent to the golden answer — the property
	// §III-B1 demands ("all of which could be inferred, but only one is
	// correct").
	for _, q := range Generate() {
		golden := q.Choices[q.Golden.Choice]
		if !strings.Contains(golden, "=") || !looksBoolean(golden) {
			continue
		}
		for i, c := range q.Choices {
			if i == q.Golden.Choice {
				continue
			}
			if looksBoolean(c) && EquivalentStrings(golden, c) {
				t.Errorf("%s: distractor %q is equivalent to golden %q", q.ID, c, golden)
			}
		}
	}
}

func looksBoolean(s string) bool {
	if i := strings.Index(s, "="); i >= 0 {
		s = s[i+1:]
	}
	_, err := Parse(s)
	return err == nil
}

func TestGoldenExpressionsMatchCircuits(t *testing.T) {
	// Spot-check d01..d04: the golden expression must equal the
	// generated circuit's truth table.
	for _, spec := range []struct {
		seed  string
		depth int
	}{{"alpha", 2}, {"beta", 2}, {"gamma", 3}, {"delta", 3}} {
		n := randomCircuit(spec.seed, spec.depth)
		tt, err := n.TruthTable("F")
		if err != nil {
			t.Fatal(err)
		}
		golden := Minimize(tt.Vars, tt.Minterms(), nil)
		if !agreesOnCares(golden, tt.Vars, tt.Minterms(), nil) {
			t.Errorf("circuit %s: golden expression does not match circuit", spec.seed)
		}
	}
}

func TestMuxFunction(t *testing.T) {
	// Data inputs (D0..D3) = 0, C, C', 1 selected by S1 S0:
	// F = S1'S0 C + S1 S0' C' + S1 S0.
	f := muxFunction([4]string{"0", "C", "C'", "1"})
	want := MustParse("S1'S0C + S1S0'C' + S1S0")
	if !Equivalent(f, want) {
		t.Errorf("mux function %q not equivalent to expected", f)
	}
	// All-zero data gives constant 0.
	zero := muxFunction([4]string{"0", "0", "0", "0"})
	if !Equivalent(zero, &Const{Value: false}) {
		t.Errorf("all-zero mux = %q", zero)
	}
}

func TestGateValueAnswer(t *testing.T) {
	// AND(A,B)=n1 with A=1,B=0 -> n1=0; OR(n1,C) = C.
	n := NewNetlist().
		AddGate(GateAnd, "G1", "n1", "A", "B").
		AddGate(GateOr, "G2", "F", "n1", "C")
	if got := gateValueAnswer(n, true, false); got != "C" {
		t.Errorf("got %q, want C", got)
	}
	// With A=1,B=1: n1=1, OR -> constant 1.
	if got := gateValueAnswer(n, true, true); got != "1" {
		t.Errorf("got %q, want 1", got)
	}
}

func TestCriticalElementsPresent(t *testing.T) {
	// Every digital question must mark at least one critical scene
	// element, or the resolution study has nothing to degrade.
	for _, q := range Generate() {
		if len(q.Visual.CriticalElements()) == 0 {
			t.Errorf("%s: no critical elements in scene", q.ID)
		}
	}
}
