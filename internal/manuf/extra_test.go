package manuf

import (
	"testing"

	"repro/internal/dataset"
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
	if (DiffusionStep{D: 1e-13, TimeS: 3600}).DiffusionLength() <= 0 {
		t.Error("diffusion length")
	}
	if IonImplantPeakDepth(100, 1.2) != 120 {
		t.Error("implant depth")
	}
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
	if s.LimitedSourceProfile(10, 0) != 0 {
		t.Error("zero-Dt limited source profile")
	}
}
