package vlm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/visual"
)

// perceivesReference is the original perception stage, kept as the
// oracle for the in-place rewrite: it filters the critical elements
// into a fresh slice and draws each recovery through rng.Bernoulli
// with a fmt.Sprint-formatted factor.
func (m *SimulatedVLM) perceivesReference(q *dataset.Question, factor int) bool {
	if factor <= 1 || q.Visual == nil {
		return true
	}
	crit := q.Visual.CriticalElements()
	if len(crit) == 0 {
		return true
	}
	scale := m.perception.LossScaleBase - m.perception.LossScalePerception*m.profile.Perception
	recovered := 0
	for _, e := range crit {
		loss := visual.LegibilityLoss(factor, e.Salience) * scale
		if loss > 1 {
			loss = 1
		}
		if rng.Bernoulli(1-loss, m.profile.Name, q.ID, "perc", e.Name, fmt.Sprint(factor)) {
			recovered++
		}
	}
	return float64(recovered)/float64(len(crit)) >= m.perception.RecallThreshold
}

// fallbackReference is decisionFor's unseen-question draw as it was
// written before the keyed-hasher form.
func (m *SimulatedVLM) fallbackReference(q *dataset.Question) decision {
	var target float64
	if q.Type == dataset.MultipleChoice {
		target = m.profile.WithChoice[q.Category]
	} else {
		target = m.profile.NoChoice[q.Category]
	}
	if rng.Bernoulli(target, m.profile.Name, q.ID, "fallback", q.Type.String()) {
		return decSolve
	}
	if q.Type == dataset.MultipleChoice {
		return decGuessWrong
	}
	return decWrongAnswer
}

// extendedShard returns the first shard of a streamed extended fold:
// questions the zoo was not calibrated on, across all five disciplines.
func extendedShard(t *testing.T) []*dataset.Question {
	t.Helper()
	stop := errors.New("first shard taken")
	var qs []*dataset.Question
	err := core.StreamExtended("perception-diff", 100, 512, func(sh dataset.Shard) error {
		qs = sh.Questions
		return stop
	})
	if !errors.Is(err, stop) || len(qs) == 0 {
		t.Fatalf("extended shard: %d questions, err %v", len(qs), err)
	}
	return qs
}

// TestPerceivesMatchesReference is the differential check of the
// perception rewrite: every verdict of the 12-model zoo at every
// downsample factor, over the standard benchmark and one extended
// shard, equals the original implementation's. The extended questions
// also take decisionFor's fallback draw, which is compared too, as are
// the wrong-answer picks.
func TestPerceivesMatchesReference(t *testing.T) {
	b, _, zoo := buildAll(t)
	ext := extendedShard(t)
	factors := []int{1, 2, 4, 8, 16, 32}
	failures := 0
	for _, m := range zoo.Models() {
		for _, qs := range [][]*dataset.Question{b.Questions, ext} {
			for _, q := range qs {
				for _, f := range factors {
					if got, want := m.perceives(q, f), m.perceivesReference(q, f); got != want {
						t.Errorf("%s %s %dx: perceives = %v, reference %v", m.Name(), q.ID, f, got, want)
						failures++
					}
				}
				if failures > 10 {
					t.Fatal("too many mismatches")
				}
			}
		}
		for _, q := range ext {
			if got, want := m.decisionFor(q), m.fallbackReference(q); got != want {
				t.Errorf("%s %s: fallback decision %v, reference %v", m.Name(), q.ID, got, want)
			}
			if q.Type == dataset.MultipleChoice {
				off := 1 + rng.Pick(3, m.profile.Name, q.ID, "wrong-letter")
				if got, want := m.wrongLetter(q), dataset.ChoiceLetter((q.Golden.Choice+off)%4); got != want {
					t.Errorf("%s %s: wrong letter %q, reference %q", m.Name(), q.ID, got, want)
				}
			} else if q.Golden.Kind == dataset.AnswerNumber {
				factor := []float64{3.1, 0.31, -1.7}[rng.Pick(3, m.profile.Name, q.ID, "wrong-num")]
				want := fmt.Sprintf("%g %s", q.Golden.Number*factor+1, q.Golden.Unit)
				if got := m.wrongShortAnswer(q); got != want {
					t.Errorf("%s %s: wrong number %q, reference %q", m.Name(), q.ID, got, want)
				}
			}
		}
	}
}
