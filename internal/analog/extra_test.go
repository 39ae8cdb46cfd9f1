package analog

import (
	"testing"

	"repro/internal/dataset"
)

// TestGenerateExtraSmoke validates the extended-collection templates in
// isolation; cross-collection properties (oracle, disjointness) live in
// internal/core.
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
		if q.Category != dataset.Analog {
			t.Errorf("%s: wrong category", q.ID)
		}
	}
	qs2 := extras()
	for i := range qs {
		if qs[i].Prompt != qs2[i].Prompt || qs[i].Golden.Text != qs2[i].Golden.Text {
			t.Fatalf("extra %d differs between runs", i)
		}
	}
}
