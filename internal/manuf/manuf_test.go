package manuf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// --- Etch -------------------------------------------------------------

func TestPaperBOEWorkedExample(t *testing.T) {
	// The paper's own §III-B5 example: 5:1 BOE at 100 nm/min, 10%
	// over-etch of a 500 nm film -> 5.5 minutes.
	p := BOE5to1()
	if tm := p.TimeToClear(500, 0.10); math.Abs(tm-5.5) > 1e-12 {
		t.Errorf("BOE over-etch time %v, want 5.5", tm)
	}
}

func TestSelectivityLoss(t *testing.T) {
	p := RIEOxide()
	// 0.5 min over-etch: 200/15 * 0.5 = 6.67 nm of Si.
	if loss := p.SubstrateLoss(0.5); math.Abs(loss-200.0/15/2) > 1e-9 {
		t.Errorf("substrate loss %v", loss)
	}
	// Infinite selectivity consumes nothing.
	if loss := BOE5to1().SubstrateLoss(1); loss != 0 {
		t.Errorf("infinite selectivity loss %v", loss)
	}
}

func TestLateralEtchAndBias(t *testing.T) {
	iso := BOE5to1()
	if u := iso.LateralEtch(2); u != 200 {
		t.Errorf("isotropic undercut %v", u)
	}
	aniso := RIEOxide()
	if u := aniso.LateralEtch(2); u != 0 {
		t.Errorf("anisotropic undercut %v, want 0", u)
	}
}

func TestQuickEtchTimeScalesWithThickness(t *testing.T) {
	// Property: etch time is linear in thickness and over-etch fraction.
	p := BOE5to1()
	f := func(thRaw, ovRaw uint8) bool {
		th := float64(thRaw) + 1
		ov := float64(ovRaw%50) / 100
		tm := p.TimeToClear(th, ov)
		return math.Abs(tm-th*(1+ov)/p.Rate) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Lithography ---------------------------------------------------------

func TestRayleigh(t *testing.T) {
	sys := ArF()
	want := 0.3 * 193 / 1.35
	if r := sys.Resolution(); math.Abs(r-want) > 1e-9 {
		t.Errorf("resolution %v, want %v", r, want)
	}
	dof := KrF().DepthOfFocus()
	if math.Abs(dof-0.5*248/(0.8*0.8)) > 1e-9 {
		t.Errorf("DOF %v", dof)
	}
	if !math.IsInf((LithoSystem{}).Resolution(), 1) {
		t.Error("zero-NA resolution should be infinite")
	}
}

func TestQuickHigherNAResolvesFiner(t *testing.T) {
	// Property: increasing NA at fixed lambda and k1 always improves
	// (reduces) the resolvable feature size.
	f := func(naRaw uint8) bool {
		na1 := 0.3 + float64(naRaw%100)/100
		na2 := na1 + 0.1
		a := LithoSystem{WavelengthNM: 193, NA: na1, K1: 0.3}
		b := LithoSystem{WavelengthNM: 193, NA: na2, K1: 0.3}
		return b.Resolution() < a.Resolution()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRETSignatures(t *testing.T) {
	for _, ret := range []RET{OPC, PSM, SMO, OAI, MPT} {
		if ret.String() == "" || ret.Signature() == "" {
			t.Errorf("RET %d missing name or signature", int(ret))
		}
	}
}

func TestPitchSplit(t *testing.T) {
	if n := PitchSplit(40, 76); n != 2 {
		t.Errorf("split %d, want 2", n)
	}
	if n := PitchSplit(80, 76); n != 1 {
		t.Errorf("split %d, want 1", n)
	}
	if n := PitchSplit(20, 76); n != 4 {
		t.Errorf("split %d, want 4", n)
	}
}

func TestMaskErrorFactor(t *testing.T) {
	if d := MaskErrorFactor(4, 2, 4); d != 2 {
		t.Errorf("MEEF delta %v", d)
	}
	// Zero magnification defaults to 4x.
	if d := MaskErrorFactor(4, 2, 0); d != 2 {
		t.Errorf("default magnification delta %v", d)
	}
}

// --- Diffusion -------------------------------------------------------------

func TestConstantSourceProfile(t *testing.T) {
	s := DiffusionStep{D: 1e-13, TimeS: 3600}
	cs := 1e20
	if c := s.ConstantSourceProfile(cs, 0); c != cs {
		t.Errorf("surface concentration %v", c)
	}
	// Monotone decreasing with depth.
	prev := cs
	for x := 1e-6; x < 1e-4; x *= 2 {
		c := s.ConstantSourceProfile(cs, x)
		if c > prev {
			t.Errorf("profile not monotone at %v", x)
		}
		prev = c
	}
}

func TestJunctionDepthConsistency(t *testing.T) {
	s := DiffusionStep{D: 1e-13, TimeS: 3600}
	cs, cb := 1e20, 1e16
	xj := s.JunctionDepthConstantSource(cs, cb)
	if xj <= 0 {
		t.Fatal("junction depth should be positive")
	}
	// The profile at xj equals the background within bisection accuracy.
	if c := s.ConstantSourceProfile(cs, xj); math.Abs(c-cb)/cb > 1e-3 {
		t.Errorf("C(xj) = %v, want %v", c, cb)
	}
	if s.JunctionDepthConstantSource(cs, 2*cs) != 0 {
		t.Error("background above surface concentration should yield 0")
	}
}

func TestDealGroveRegimes(t *testing.T) {
	// Short time: linear regime, x ~ (B/A) t.
	x := OxideGrowthDealGrove(0.5, 0.2, 0, 0.01)
	if math.Abs(x-0.5*0.01)/x > 0.05 {
		t.Errorf("linear regime thickness %v", x)
	}
	// Long time: parabolic regime, x ~ sqrt(B t).
	x = OxideGrowthDealGrove(0.5, 0.2, 0, 100)
	if math.Abs(x-math.Sqrt(0.2*100))/x > 0.05 {
		t.Errorf("parabolic regime thickness %v", x)
	}
	// Initial oxide shifts the curve.
	if OxideGrowthDealGrove(0.5, 0.2, 0.1, 1) <= OxideGrowthDealGrove(0.5, 0.2, 0, 1) {
		t.Error("initial oxide ignored")
	}
}

func TestSheetResistance(t *testing.T) {
	rs := SheetResistance(1.7e-6, 2e-5)
	if math.Abs(rs-0.085) > 1e-9 {
		t.Errorf("sheet resistance %v", rs)
	}
	if !math.IsInf(SheetResistance(1, 0), 1) {
		t.Error("zero thickness should be infinite")
	}
}

// --- Yield ---------------------------------------------------------------

func TestYieldModels(t *testing.T) {
	y := PoissonYield(1, 0.5)
	if math.Abs(y-math.Exp(-0.5)) > 1e-12 {
		t.Errorf("poisson %v", y)
	}
	if PoissonYield(0, 0.5) != 1 {
		t.Error("zero area should yield 1")
	}
}

func TestGrossDiePerWafer(t *testing.T) {
	// 300 mm wafer, 100 mm2 dies: pi*150^2/100 - pi*300/sqrt(200) =
	// 706.9 - 66.6 ~ 640.
	n := GrossDiePerWafer(300, 100)
	if n < 630 || n < 1 || n > 650 {
		t.Errorf("gross die %d, want ~640", n)
	}
	if GrossDiePerWafer(300, 0) != 0 {
		t.Error("zero-area die should be 0")
	}
	good := GoodDiePerWafer(300, 100, 0.2)
	if good >= n {
		t.Error("good die should be fewer than gross")
	}
}

func TestClassifyWaferMap(t *testing.T) {
	cases := []struct {
		pts  [][2]float64
		want DefectClass
	}{
		{[][2]float64{{-0.6, -0.55}, {-0.3, -0.28}, {0, 0.02}, {0.3, 0.31}, {0.6, 0.58}}, DefectScratch},
		{[][2]float64{{0.9, 0}, {0, 0.92}, {-0.88, 0}, {0, -0.9}}, DefectEdgeRing},
		{[][2]float64{{0.05, 0}, {0, 0.1}, {-0.08, 0.02}}, DefectCenter},
		{[][2]float64{{0.4, 0.4}, {0.45, 0.42}, {0.42, 0.38}, {0.38, 0.44}}, DefectCluster},
		{nil, DefectRandom},
	}
	for i, c := range cases {
		if got := ClassifyWaferMap(c.pts); got != c.want {
			t.Errorf("case %d: classified %v, want %v", i, got, c.want)
		}
	}
}

func TestDefectSignatures(t *testing.T) {
	for _, d := range []DefectClass{DefectRandom, DefectCluster, DefectScratch, DefectEdgeRing, DefectCenter} {
		if d.String() == "" {
			t.Errorf("defect class %d missing name", int(d))
		}
	}
}

// --- Question generation ------------------------------------------------------

func TestGenerateComposition(t *testing.T) {
	qs := Generate()
	if len(qs) != 20 {
		t.Fatalf("generated %d, want 20", len(qs))
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
	if mc != 6 || sa != 14 {
		t.Errorf("mc=%d sa=%d, want 6/14", mc, sa)
	}
	want := map[visual.Kind]int{
		visual.KindFigure: 4, visual.KindStructure: 4, visual.KindLayout: 4,
		visual.KindDiagram: 3, visual.KindFlow: 2, visual.KindMixed: 2,
		visual.KindSchematic: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("visual %s: %d, want %d", k, kinds[k], n)
		}
	}
}

func TestBOEQuestionGolden(t *testing.T) {
	for _, q := range Generate() {
		if q.ID == "m03" {
			if math.Abs(q.Golden.Number-5.5) > 1e-9 {
				t.Errorf("m03 golden %v, want 5.5 (the paper's worked example)", q.Golden.Number)
			}
		}
	}
}
