package manuf

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

func TestGenerateExtraSmoke(t *testing.T) {
	extras := func() []*dataset.Question {
		qs := make([]*dataset.Question, 12)
		for i := range qs {
			qs[i] = ExtraAt("unit", i)
		}
		return qs
	}
	qs := extras()
	if len(qs) != 12 {
		t.Fatalf("got %d", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
		if q.Category != dataset.Manufacture {
			t.Errorf("%s: wrong category", q.ID)
		}
	}
	// Determinism.
	qs2 := extras()
	for i := range qs {
		if qs[i].Prompt != qs2[i].Prompt || qs[i].Golden.Number != qs2[i].Golden.Number {
			t.Fatalf("extra %d differs between runs", i)
		}
	}
}

func TestMiscHelpers(t *testing.T) {
	if BOE5to1().String() == "" || EUV().String() == "" {
		t.Error("empty descriptions")
	}
	if EUV().WavelengthNM != 13.5 {
		t.Error("EUV wavelength")
	}
	// Zero-Dt profile edge cases.
	s := DiffusionStep{}
	if s.ConstantSourceProfile(10, 0) != 10 || s.ConstantSourceProfile(10, 1) != 0 {
		t.Error("zero-Dt constant source profile")
	}
}

// TestAerialPrintedCDTable checks every entry of the printed-CD table
// bit for bit against PrintedCD on its grating, built here from the
// drawn values as extraAerialCD built it before the table, and checks
// that aerial-CD questions carry the value of the grating they draw.
func TestAerialPrintedCDTable(t *testing.T) {
	sim := NewAerialSimulator(KrF())
	printed := func(cd, pitch float64) float64 {
		features, x0 := LineInGrating(cd, pitch, 5)
		return sim.PrintedCD(features, x0)
	}
	table := aerialPrintedCD()
	for ci := 0; ci < 5; ci++ {
		for pi := 0; pi < 3; pi++ {
			cd := float64(200 + 20*ci)
			pitch := cd * float64(2+pi)
			got, want := table[ci][pi], printed(cd, pitch)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("cd %g pitch %g: table %v, PrintedCD %v", cd, pitch, got, want)
			}
		}
	}
	for i := 4; i < 600; i += 6 {
		q := ExtraAt("aerial-table", i)
		r := rng.NewStream("manuf-extra-aerial", string(dataset.AppendExtraInst(nil, "aerial-table", i)))
		cd := float64(200 + 20*r.IntN(5))
		pitch := cd * float64(2+r.IntN(3))
		if want := printed(cd, pitch); math.Float64bits(q.Golden.Number) != math.Float64bits(want) {
			t.Errorf("%s: golden %v, PrintedCD %v", q.ID, q.Golden.Number, want)
		}
	}
}
