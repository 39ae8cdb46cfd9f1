package manuf

import (
	"math"
	"testing"
	"testing/quick"
)

func testSim() *AerialSimulator {
	return NewAerialSimulator(KrF()) // 248 nm, NA 0.8
}

func TestIntensityShape(t *testing.T) {
	sim := testSim()
	features := []MaskFeature{{CenterNM: 0, WidthNM: 600}}
	// Centre of a wide line: nearly full intensity.
	if i := sim.Intensity(features, 0); i < 0.95 {
		t.Errorf("centre intensity %v, want ~1", i)
	}
	// Far away: nearly zero.
	if i := sim.Intensity(features, 2000); i > 0.01 {
		t.Errorf("far-field intensity %v, want ~0", i)
	}
	// The nominal edge of a wide isolated line sits at ~0.5 (the erf
	// midpoint).
	if i := sim.Intensity(features, 300); math.Abs(i-0.5) > 0.02 {
		t.Errorf("edge intensity %v, want ~0.5", i)
	}
}

func TestQuickIntensitySymmetric(t *testing.T) {
	sim := testSim()
	f := func(widthRaw, xRaw uint8) bool {
		w := 50 + float64(widthRaw)
		x := float64(xRaw) * 3
		features := []MaskFeature{{CenterNM: 0, WidthNM: w}}
		a := sim.Intensity(features, x)
		b := sim.Intensity(features, -x)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsolatedLinePrintsAtSize(t *testing.T) {
	sim := testSim()
	// A wide isolated line prints at its drawn size (0.5 threshold at
	// the erf midpoint).
	features := []MaskFeature{{CenterNM: 0, WidthNM: 400}}
	cd := sim.PrintedCD(features, 0)
	if math.Abs(cd-400) > 6 {
		t.Errorf("isolated 400 nm line prints %v nm", cd)
	}
}

func TestSubResolutionFails(t *testing.T) {
	sim := testSim()
	// A line far below the resolution limit never clears threshold.
	features := []MaskFeature{{CenterNM: 0, WidthNM: 20}}
	if cd := sim.PrintedCD(features, 0); cd != 0 {
		t.Errorf("20 nm line printed %v nm on a 248 nm tool", cd)
	}
}

func TestProximityEffect(t *testing.T) {
	sim := testSim()
	// Equal lines and spaces print exactly at size: the blurred profile
	// is symmetric about the 0.5 threshold.
	if err := sim.ProximityError(200, 400, 5); math.Abs(err) > 1 {
		t.Errorf("1:1 duty proximity error %v nm, want 0 by symmetry", err)
	}
	// A 150 nm isolated line sits near the KrF resolution limit: its
	// peak intensity sags and it prints narrower than drawn.
	iso := sim.ProximityError(150, 3000, 5)
	if iso >= -5 {
		t.Errorf("near-limit isolated error %v nm, want clearly negative", iso)
	}
	// Packing neighbours close (but resolved) leaks light into the
	// line, printing it wider than the isolated case — the classic
	// dense-vs-iso proximity bias OPC corrects.
	dense := sim.ProximityError(150, 280, 5)
	if dense <= iso {
		t.Errorf("dense error %v should exceed isolated %v", dense, iso)
	}
	// Below the pitch limit the grating bridges: the printed region
	// spans multiple lines.
	features, x0 := LineInGrating(150, 220, 5)
	if cd := sim.PrintedCD(features, x0); cd <= 220 {
		t.Errorf("sub-limit grating printed %v nm, expected bridged lines", cd)
	}
}

func TestBiasOPCRestoresCD(t *testing.T) {
	sim := testSim()
	const cd, pitch = 150.0, 400.0
	before := sim.ProximityError(cd, pitch, 5)
	if math.Abs(before) < 1 {
		t.Fatalf("expected a proximity error to correct, got %v", before)
	}
	bias, ok := sim.ApplyBiasOPC(cd, pitch, 5)
	if !ok {
		t.Fatal("bias OPC failed to converge")
	}
	// The corrective bias opposes the error.
	if before > 0 && bias >= 0 || before < 0 && bias <= 0 {
		t.Errorf("bias %v does not oppose error %v", bias, before)
	}
	// After correction, the printed CD hits the target.
	features, x0 := LineInGrating(cd+bias, pitch, 5)
	after := sim.PrintedCD(features, x0)
	if math.Abs(after-cd) > 2 {
		t.Errorf("after OPC: printed %v, want %v", after, cd)
	}
}

func TestQuickPrintedCDMonotoneInMaskCD(t *testing.T) {
	// Property: drawing a line wider never prints it narrower.
	sim := testSim()
	f := func(cdRaw uint8) bool {
		cd := 150 + float64(cdRaw%100)
		a := sim.PrintedCD([]MaskFeature{{WidthNM: cd}}, 0)
		b := sim.PrintedCD([]MaskFeature{{WidthNM: cd + 10}}, 0)
		return b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBetterToolPrintsFiner(t *testing.T) {
	// An ArF immersion tool resolves lines a KrF tool cannot.
	arf := NewAerialSimulator(ArF())
	krf := NewAerialSimulator(KrF())
	features := []MaskFeature{{CenterNM: 0, WidthNM: 80}}
	if cd := arf.PrintedCD(features, 0); cd == 0 {
		t.Error("ArF immersion failed to print an 80 nm line")
	}
	if cd := krf.PrintedCD(features, 0); cd != 0 {
		t.Errorf("KrF printed an 80 nm line (%v nm) below its limit", cd)
	}
}
