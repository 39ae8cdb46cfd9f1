//go:build !race

// Allocation pins for the perception stage and the answer path. The race detector
// instruments allocations, so this runs only in the plain test pass.

package vlm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
)

// TestPerceivesZeroAlloc pins the 16x perception stage — the §IV-B
// resolution runs' per-(model, question) work — at 0 allocs.
func TestPerceivesZeroAlloc(t *testing.T) {
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	var qs []*dataset.Question
	for _, q := range b.Questions {
		if q.Visual != nil && len(q.Visual.CriticalElements()) > 0 {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		t.Fatal("no question with critical scene elements")
	}
	sink := 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range qs {
			if m.perceives(q, m.key.String(q.ID), 16) {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("16x perceives allocates %.1f times per benchmark sweep; want 0", allocs)
	}
	_ = sink
}

// TestAnswerAllocsAtMostResponse pins the answer path at no more than
// one allocation per call — the response string itself — over the
// Table II benchmark at full resolution and at the §IV-B 16x factor.
// Assembling the text prompt on this path would fail it.
func TestAnswerAllocsAtMostResponse(t *testing.T) {
	b, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	for _, factor := range []int{1, 16} {
		opts := eval.InferenceOptions{DownsampleFactor: factor}
		sink := 0
		allocs := testing.AllocsPerRun(10, func() {
			for _, q := range b.Questions {
				sink += len(m.Answer(q, opts))
			}
		})
		if per := allocs / float64(b.Len()); per > 1 {
			t.Errorf("factor %d: Answer allocates %.2f times per call; want at most 1 (its response)", factor, per)
		}
		_ = sink
	}
}

// TestConstantAnswersZeroAlloc pins the answers whose text is fixed —
// the malformed description of every visual kind, the wrong expression
// and the perception failure — at 0 allocs: none is rebuilt per call.
func TestConstantAnswersZeroAlloc(t *testing.T) {
	_, _, zoo := buildAll(t)
	m, _ := zoo.Model("GPT4o")
	sink := 0
	check := func(name string, answer func() string) {
		if allocs := testing.AllocsPerRun(20, func() { sink += len(answer()) }); allocs != 0 {
			t.Errorf("%s answer allocates %.1f times per call; want 0", name, allocs)
		}
	}
	check("malformed, no scene", func() string { return m.malformedResponse(&dataset.Question{}) })
	for k := range visual.NumKinds {
		q := &dataset.Question{Visual: visual.NewScene(visual.Kind(k), "s")}
		check("malformed "+q.Visual.Kind.String(), func() string { return m.malformedResponse(q) })
	}
	expr := &dataset.Question{Golden: dataset.Answer{Kind: dataset.AnswerExpression, Text: "F = A'B + AB'"}}
	check("wrong-expression", func() string { return wrongTextAnswer(expr.Golden.Kind) })
	check("perception-failure", func() string { return m.perceptionFailureResponse(expr) })
	_ = sink
}

// TestAnswerZeroAllocCalibrated pins Answer at 0 allocs on every
// calibrated question of both collections, for every model, at full
// resolution and at the §IV-B 16x factor: the Zoo's tables hold every
// response the Table II runs give.
func TestAnswerZeroAllocCalibrated(t *testing.T) {
	b, chal, zoo := buildAll(t)
	for _, m := range zoo.Models() {
		for _, factor := range []int{1, 16} {
			opts := eval.InferenceOptions{DownsampleFactor: factor}
			sink := 0
			allocs := testing.AllocsPerRun(5, func() {
				for _, qs := range [][]*dataset.Question{b.Questions, chal.Questions} {
					for _, q := range qs {
						sink += len(m.Answer(q, opts))
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s %dx: Answer allocates %.1f times per sweep of both collections; want 0", m.Name(), factor, allocs)
			}
			_ = sink
		}
	}
}

// TestAnswerZeroAllocSecondTouch pins Answer at 0 allocs on questions
// the tables do not answer, once each has been answered: the second
// answer reads the question's Memo record. The questions are an
// extended fold and Ord-less clones of both collections, whose
// decisions come from the tables by ID, so that every decision kind
// occurs; every model answers them at full resolution and at 16x.
func TestAnswerZeroAllocSecondTouch(t *testing.T) {
	b, chal, zoo := buildAll(t)
	ext, err := core.BuildExtended("second-touch", 20)
	if err != nil {
		t.Fatal(err)
	}
	qs := append([]*dataset.Question(nil), ext.Questions...)
	for _, set := range [][]*dataset.Question{b.Questions, chal.Questions} {
		for _, q := range set {
			c := q.Clone()
			c.Ord = 0
			qs = append(qs, c)
		}
	}
	const wrongText = decWrongAnswer + 1 // a wrong answer to a non-numeric golden
	seen := map[decision]bool{}
	for _, m := range zoo.Models() {
		for _, q := range qs {
			if f, _ := m.calibrated(q); f != nil {
				t.Fatalf("%s %s: answered from the tables", m.Name(), q.ID)
			}
			d := m.decisionFor(q, m.key.String(q.ID))
			if d == decWrongAnswer && q.Golden.Kind != dataset.AnswerNumber {
				d = wrongText
			}
			seen[d] = true
		}
		for _, factor := range []int{1, 16} {
			opts := eval.InferenceOptions{DownsampleFactor: factor}
			sink := 0
			// AllocsPerRun's warm-up run gives each question its first answer.
			allocs := testing.AllocsPerRun(5, func() {
				for _, q := range qs {
					sink += len(m.Answer(q, opts))
				}
			})
			if allocs != 0 {
				t.Errorf("%s %dx: a second answer allocates %.1f times per sweep; want 0", m.Name(), factor, allocs)
			}
			_ = sink
		}
	}
	for _, d := range []decision{decSolve, decGuessCorrect, decGuessWrong, decMalformed, decWrongAnswer, wrongText} {
		if !seen[d] {
			t.Errorf("no question takes decision %d", d)
		}
	}
}
