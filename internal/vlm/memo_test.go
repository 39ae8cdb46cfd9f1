package vlm

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// TestQuestionAnswersConcurrent has the 12 models answer each question
// of a fresh extended fold at once, one goroutine per model, as a
// parallel run does. Every question must end with one Memo record, and
// any two models that give the same response must give the same
// string, pointer for pointer: the responses come from that one record.
// Run it under -race: the first answers race to fill each Memo.
func TestQuestionAnswersConcurrent(t *testing.T) {
	_, _, zoo := buildAll(t)
	ext, err := core.BuildExtended("memo-race", 10)
	if err != nil {
		t.Fatal(err)
	}
	models := zoo.Models()
	for _, factor := range []int{1, 16} {
		fold := make([]*dataset.Question, len(ext.Questions))
		for i, q := range ext.Questions {
			fold[i] = q.Clone()
		}
		opts := eval.InferenceOptions{DownsampleFactor: factor}
		resps := make([][]string, len(models))
		var start, done sync.WaitGroup
		start.Add(1)
		for i, m := range models {
			resps[i] = make([]string, len(fold))
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				for j, q := range fold {
					resps[i][j] = m.Answer(q, opts)
				}
			}()
		}
		start.Done()
		done.Wait()
		for j, q := range fold {
			if q.Memo.Load() == nil {
				t.Fatalf("%dx %s: no Memo record", factor, q.ID)
			}
			first := map[string]string{}
			for i := range models {
				r := resps[i][j]
				if f, ok := first[r]; !ok {
					first[r] = r
				} else if unsafe.StringData(f) != unsafe.StringData(r) {
					t.Fatalf("%dx %s: %s's response %q is a copy of another model's", factor, q.ID, models[i].Name(), r)
				}
			}
		}
	}
}

// TestMemoCopiesAndMutationsMatchRef answers a fresh fold with every
// model, so that each question holds a Memo record, and then compares
// Answer with answerRef, twice each, on copies of the fold made after
// it was answered (StripChoices, JSON and pack round trips) and on
// clones answered first and then changed in their type or in a golden
// field a response reads: no copy or changed question may answer from
// a stale record.
func TestMemoCopiesAndMutationsMatchRef(t *testing.T) {
	_, _, zoo := buildAll(t)
	ext, err := core.BuildExtended("memo-copies", 10)
	if err != nil {
		t.Fatal(err)
	}
	answerAll := func(qs []*dataset.Question) {
		for _, m := range zoo.Models() {
			for _, q := range qs {
				m.Answer(q, eval.InferenceOptions{})
			}
		}
	}
	answerAll(ext.Questions)

	stripped := ext.Challenge()
	for _, q := range stripped.Questions {
		if q.Memo.Load() != nil {
			t.Fatalf("%s: StripChoices copied the Memo record", q.ID)
		}
	}
	var js, pack bytes.Buffer
	if err := ext.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	decoded, err := dataset.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WritePack(&pack, ext); err != nil {
		t.Fatal(err)
	}
	packed, err := dataset.ReadPackBytes(pack.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(q *dataset.Question){
		"number": func(q *dataset.Question) { q.Golden.Number = q.Golden.Number*2 + 1 },
		"unit":   func(q *dataset.Question) { q.Golden.Unit += "x" },
		"choice": func(q *dataset.Question) { q.Golden.Choice = (q.Golden.Choice + 1) % 4 },
		"type":   func(q *dataset.Question) { q.Type = 1 - q.Type },
		"option": func(q *dataset.Question) {
			if len(q.Choices) > 0 {
				q.Choices = append([]string(nil), q.Choices...)
				q.Choices[q.Golden.Choice] += " (changed)"
			}
		},
	}
	sets := map[string][]*dataset.Question{
		"StripChoices": stripped.Questions,
		"JSON":         decoded.Questions,
		"pack":         packed.Questions,
	}
	for name, mutate := range mutations {
		qs := make([]*dataset.Question, len(ext.Questions))
		for i, q := range ext.Questions {
			qs[i] = q.Clone()
		}
		answerAll(qs)
		stale := 0
		for _, q := range qs {
			mutate(q)
			if f := q.Memo.Load().(*formAnswers); !f.matches(q) {
				stale++
			}
		}
		if stale == 0 {
			t.Fatalf("mutated %s: every Memo record still matches its question", name)
		}
		sets["mutated "+name] = qs
	}
	for _, qs := range sets {
		for _, m := range zoo.Models() {
			ref := newRefModel(m)
			for _, q := range qs {
				for _, factor := range []int{1, 16} {
					checkAnswerMatchesRef(t, m, ref, q, factor)
					checkAnswerMatchesRef(t, m, ref, q, factor)
				}
			}
		}
	}
}
