package analog

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestVoltageDivider(t *testing.T) {
	c := NewCircuit()
	c.V("Vs", "in", Ground, 10)
	c.R("R1", "in", "out", 1000)
	c.R("R2", "out", Ground, 1000)
	sol, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if v := real(sol.VoltageAt("out")); math.Abs(v-5) > 1e-9 {
		t.Errorf("divider output %v, want 5", v)
	}
	// Source branch current: 10V over 2k = 5 mA flowing out of the
	// source's plus terminal (negative through the source by the MNA
	// convention).
	if i := real(sol.BranchCurrents["Vs"]); math.Abs(i+0.005) > 1e-9 {
		t.Errorf("source current %v, want -0.005", i)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := NewCircuit()
	c.I("I1", "a", Ground, 0.001)
	c.R("R1", "a", Ground, 2000)
	sol, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if v := real(sol.VoltageAt("a")); math.Abs(v-2) > 1e-9 {
		t.Errorf("V = %v, want 2 (1 mA into 2k)", v)
	}
}

func TestEquivalentResistanceKnown(t *testing.T) {
	cases := []struct {
		build func() *Circuit
		want  float64
	}{
		{func() *Circuit {
			c := NewCircuit()
			c.R("R1", "a", "b", 100).R("R2", "b", Ground, 200)
			return c
		}, 300},
		{func() *Circuit {
			c := NewCircuit()
			c.R("R1", "a", Ground, 100).R("R2", "a", Ground, 100)
			return c
		}, 50},
		{func() *Circuit {
			// Wheatstone bridge, balanced: 1k arms, bridge resistor
			// irrelevant.
			c := NewCircuit()
			c.R("R1", "a", "m1", 1000).R("R2", "m1", Ground, 1000)
			c.R("R3", "a", "m2", 1000).R("R4", "m2", Ground, 1000)
			c.R("Rb", "m1", "m2", 5000)
			return c
		}, 1000},
	}
	for i, tc := range cases {
		got, err := tc.build().EquivalentResistance("a", Ground)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(got-tc.want) > 1e-6*tc.want {
			t.Errorf("case %d: Req = %v, want %v", i, got, tc.want)
		}
	}
}

func TestQuickSeriesParallelAgainstMNA(t *testing.T) {
	// Property: MNA-measured equivalent resistance matches the
	// closed-form series/parallel combination for random ladders.
	f := func(r1u, r2u, r3u uint16) bool {
		r1 := float64(r1u%5000) + 10
		r2 := float64(r2u%5000) + 10
		r3 := float64(r3u%5000) + 10
		c := NewCircuit()
		c.R("R1", "a", "b", r1)
		c.R("R2", "b", Ground, r2)
		c.R("R3", "b", Ground, r3)
		want := SeriesR(r1, ParallelR(r2, r3))
		got, err := c.EquivalentResistance("a", Ground)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickLinearity(t *testing.T) {
	// Property: doubling the source doubles every node voltage.
	f := func(vsRaw uint8, r1u, r2u uint16) bool {
		vs := float64(vsRaw%100) + 1
		r1 := float64(r1u%5000) + 10
		r2 := float64(r2u%5000) + 10
		build := func(scale float64) float64 {
			c := NewCircuit()
			c.V("Vs", "in", Ground, vs*scale)
			c.R("R1", "in", "out", r1)
			c.R("R2", "out", Ground, r2)
			sol, err := c.SolveDC()
			if err != nil {
				return math.NaN()
			}
			return real(sol.VoltageAt("out"))
		}
		v1, v2 := build(1), build(2)
		return math.Abs(v2-2*v1) < 1e-9*(1+math.Abs(v1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVCVSIdealAmplifier(t *testing.T) {
	// E element with gain 5 from input node.
	c := NewCircuit()
	c.V("Vin", "in", Ground, 2)
	c.VCVS("E1", "out", Ground, "in", Ground, 5)
	c.R("RL", "out", Ground, 1000)
	sol, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if v := real(sol.VoltageAt("out")); math.Abs(v-10) > 1e-9 {
		t.Errorf("VCVS output %v, want 10", v)
	}
}

func TestVCCSCommonSourceSign(t *testing.T) {
	// A VCCS modelling gm must invert in a common-source stage.
	m := MOSFET{Gm: 2e-3, Ro: math.Inf(1)}
	sol, err := CommonSourceCircuit(m, 5000).SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if v := real(sol.VoltageAt("out")); math.Abs(v-(-10)) > 1e-9 {
		t.Errorf("CS gain %v, want -10", v)
	}
}

func TestRCFilterAC(t *testing.T) {
	r, cap := 1000.0, 1e-6
	w0 := 1 / (r * cap)
	c := NewCircuit()
	c.V("Vin", "in", Ground, 1)
	c.R("R", "in", "out", r)
	c.C("C", "out", Ground, cap)
	// At the corner frequency the magnitude is 1/sqrt(2) and phase -45.
	g, err := c.Transfer("Vin", "out", []float64{w0, 10 * w0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(g[0])-1/math.Sqrt2) > 1e-9 {
		t.Errorf("|H(w0)| = %v", cmplx.Abs(g[0]))
	}
	if ph := cmplx.Phase(g[0]) * 180 / math.Pi; math.Abs(ph+45) > 1e-6 {
		t.Errorf("phase at w0 = %v, want -45", ph)
	}
	// A decade above, ~-20 dB.
	if db := 20 * math.Log10(cmplx.Abs(g[1])); math.Abs(db+20) > 0.1 {
		t.Errorf("magnitude a decade above pole: %v dB, want ~-20", db)
	}
}

func TestInductorDC(t *testing.T) {
	// Inductor is a short at DC: divider collapses.
	c := NewCircuit()
	c.V("Vs", "in", Ground, 10)
	c.R("R1", "in", "out", 1000)
	c.L("L1", "out", Ground, 1e-3)
	sol, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if v := real(sol.VoltageAt("out")); math.Abs(v) > 1e-9 {
		t.Errorf("inductor DC voltage %v, want 0", v)
	}
	// All source current flows through it: 10 mA.
	if i := real(sol.BranchCurrents["L1"]); math.Abs(i-0.01) > 1e-9 {
		t.Errorf("inductor current %v, want 0.01", i)
	}
}

func TestRLHighPass(t *testing.T) {
	// L against R: |H| rises with frequency toward 1.
	c := NewCircuit()
	c.V("Vin", "in", Ground, 1)
	c.R("R", "in", "out", 100)
	c.L("L", "out", Ground, 1e-3)
	w0 := 100 / 1e-3 // R/L
	g, err := c.Transfer("Vin", "out", []float64{w0 / 100, w0 * 100})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(g[0]) > 0.05 {
		t.Errorf("low frequency gain %v, want ~0", cmplx.Abs(g[0]))
	}
	if cmplx.Abs(g[1]) < 0.95 {
		t.Errorf("high frequency gain %v, want ~1", cmplx.Abs(g[1]))
	}
}

func TestSingularDetection(t *testing.T) {
	// A floating node must be reported, not silently mis-solved.
	c := NewCircuit()
	c.V("Vs", "in", Ground, 1)
	c.R("R1", "floating1", "floating2", 100)
	if _, err := c.SolveDC(); err == nil {
		t.Error("floating subcircuit not reported as singular")
	}
}

func TestZeroResistorRejected(t *testing.T) {
	c := NewCircuit()
	c.V("Vs", "a", Ground, 1)
	c.R("R1", "a", Ground, 0)
	if _, err := c.SolveDC(); err == nil {
		t.Error("zero-ohm resistor accepted")
	}
}

func TestTransferErrors(t *testing.T) {
	c := NewCircuit()
	c.V("Vs", "a", Ground, 1).R("R", "a", Ground, 100)
	if _, err := c.Transfer("nope", "a", []float64{1}); err == nil {
		t.Error("unknown source accepted")
	}
	z := NewCircuit()
	z.V("Vs", "a", Ground, 0).R("R", "a", Ground, 100)
	if _, err := z.Transfer("Vs", "a", []float64{1}); err == nil {
		t.Error("zero-amplitude source accepted")
	}
}

func TestParallelSeriesHelpers(t *testing.T) {
	if got := ParallelR(100, 100); math.Abs(got-50) > 1e-12 {
		t.Errorf("ParallelR = %v", got)
	}
	if got := ParallelR(100, math.Inf(1)); math.Abs(got-100) > 1e-9 {
		t.Errorf("ParallelR with inf = %v", got)
	}
	if got := SeriesR(1, 2, 3); got != 6 {
		t.Errorf("SeriesR = %v", got)
	}
	if got := ParallelR(); !math.IsInf(got, 1) {
		t.Errorf("empty ParallelR = %v, want +Inf", got)
	}
}

func TestIdealOpAmpFromVCVS(t *testing.T) {
	// Build an inverting amplifier from a very-high-gain VCVS driving
	// the output from the (virtual-ground) inverting node. The MNA
	// solution must converge to the ideal closed form -R2/R1.
	const r1, r2, a0 = 1000.0, 10000.0, 1e7
	c := NewCircuit()
	c.V("Vin", "in", Ground, 1)
	c.R("R1", "in", "minus", r1)
	c.R("R2", "minus", "out", r2)
	// Output = -A * V(minus): non-inverting input grounded.
	c.VCVS("OP", "out", Ground, Ground, "minus", a0)
	sol, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	gain := real(sol.VoltageAt("out"))
	want := InvertingOpAmpGain(r1, r2)
	if math.Abs(gain-want) > 1e-2 {
		t.Errorf("VCVS op-amp gain %v, ideal %v", gain, want)
	}
	// The virtual ground: inverting node sits at ~0 V.
	if v := real(sol.VoltageAt("minus")); math.Abs(v) > 1e-4 {
		t.Errorf("virtual ground at %v V", v)
	}
}

func TestNonInvertingOpAmpFromVCVS(t *testing.T) {
	const r1, r2, a0 = 1000.0, 9000.0, 1e7
	c := NewCircuit()
	c.V("Vin", "plus", Ground, 1)
	c.R("R1", "minus", Ground, r1)
	c.R("R2", "out", "minus", r2)
	c.VCVS("OP", "out", Ground, "plus", "minus", a0)
	sol, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	gain := real(sol.VoltageAt("out"))
	want := NonInvertingOpAmpGain(r1, r2)
	if math.Abs(gain-want) > 1e-2 {
		t.Errorf("VCVS non-inverting gain %v, ideal %v", gain, want)
	}
}

// L and VCVS build the inductor and E elements whose MNA stamps the
// tests above exercise; no question generator builds either, so the
// builders live here.

// L adds an inductor.
func (c *Circuit) L(name, plus, minus string, henries float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindInductor, Name: name, Plus: plus, Minus: minus, Value: henries})
	return c
}

// VCVS adds a voltage-controlled voltage source with the given gain.
func (c *Circuit) VCVS(name, plus, minus, ctrlPlus, ctrlMinus string, gain float64) *Circuit {
	c.Elements = append(c.Elements, Element{Kind: KindVCVS, Name: name, Plus: plus, Minus: minus,
		CtrlPlus: ctrlPlus, CtrlMinus: ctrlMinus, Value: gain})
	return c
}
