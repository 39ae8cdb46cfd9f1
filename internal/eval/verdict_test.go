package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// judgeEvery builds a grid's reports the plain way, the reference the
// verdict memo is checked against: every model answers every question
// and j scores every answer.
func judgeEvery(j Judge, opts InferenceOptions, models []Model, qs []*dataset.Question) []*Report {
	reps := make([]*Report, len(models))
	for i, m := range models {
		reps[i] = &Report{ModelName: m.Name()}
		for _, q := range qs {
			resp := m.Answer(q, opts)
			reps[i].Results = append(reps[i].Results, QuestionResult{
				QuestionID: q.ID, Category: q.Category, Response: resp, Correct: j.Correct(q, resp),
			})
		}
	}
	return reps
}

// overflowResponses are more distinct responses than a memo row holds,
// right and wrong mixed, for testBenchmark's questions (option c,
// "right", is golden).
var overflowResponses = [...]string{
	"c", "a", "answer: c", "option b", "(c)", "right", "w",
	"it is right", "d)", "x", "choice c", "z",
}

// TestVerdictMemoOverflow: sixteen models give twelve distinct
// responses to every question, four more than a row holds, and the
// last four repeat the first four's. The responses that find the row
// full are judged without the memo, and every verdict still matches
// judging every event, with the lenient judge and the strict one.
func TestVerdictMemoOverflow(t *testing.T) {
	b := testBenchmark(30)
	models := make([]Model, len(overflowResponses)+4)
	for i := range models {
		models[i] = fixedModel{fmt.Sprint("m", i), func(q *dataset.Question) string {
			// Rotate by question, so each row fills in its own order.
			return overflowResponses[(i+int(q.ID[1]-'0')*5+int(q.ID[2]-'0'))%len(overflowResponses)]
		}}
	}
	for _, j := range []Judge{{}, {Strict: true}} {
		want := reportsJSON(t, judgeEvery(j, InferenceOptions{}, models, b.Questions))
		for _, w := range []int{1, 2, 8} {
			var reps []*Report
			n := countJudged(func() {
				var err error
				if reps, err = (Runner{Judge: j, Workers: w}).EvaluateAllContext(context.Background(), models, b); err != nil {
					t.Fatal(err)
				}
			})
			if got := reportsJSON(t, reps); string(got) != string(want) {
				t.Fatalf("%+v, workers %d: reports differ from judging every event:\n%s\nwant\n%s", j, w, got, want)
			}
			// Serially, each row keeps the first 8 responses and
			// judges the other 4 without keeping them; the repeats of
			// the first four models' responses are hits.
			if judged := len(overflowResponses) * b.Len(); w == 1 && n != int64(judged) {
				t.Errorf("%+v, serial: judged %d times, want %d", j, n, judged)
			}
		}
	}
}

// TestVerdictMemoStaleShard: a two-shard stream whose second shard
// puts new questions on the first shard's rows, with the golden option
// moved, so every response the first shard remembered has the
// opposite verdict in the second. A stale entry must never answer.
func TestVerdictMemoStaleShard(t *testing.T) {
	first, second := testBenchmark(20), testBenchmark(20)
	for i, q := range second.Questions {
		q.ID = fmt.Sprintf("s%02d", i)
		q.Choices = []string{"w", "right", "x", "z"}
		q.Golden = dataset.Answer{Kind: dataset.AnswerChoice, Choice: 0, Text: "w"}
	}
	qs := append(append([]*dataset.Question{}, first.Questions...), second.Questions...)
	stream := func(yield func(dataset.Shard) error) error {
		for i, sh := range [][]*dataset.Question{first.Questions, second.Questions} {
			if err := yield(dataset.Shard{Index: i, Start: i * 20, Questions: sh, Total: len(qs)}); err != nil {
				return err
			}
		}
		return nil
	}
	models := []Model{
		fixedModel{"c", func(*dataset.Question) string { return "c" }},
		fixedModel{"a", func(*dataset.Question) string { return "a" }},
		fixedModel{"w", func(*dataset.Question) string { return "w" }},
		fixedModel{"right", func(*dataset.Question) string { return "right" }},
	}
	want := reportsJSON(t, judgeEvery(Judge{}, InferenceOptions{}, models, qs))
	for _, w := range []int{1, 2, 8} {
		reps, err := evaluateShards(Runner{Workers: w}, models, stream)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportsJSON(t, reps); string(got) != string(want) {
			t.Fatalf("workers %d: reports differ from judging every event:\n%s\nwant\n%s", w, got, want)
		}
	}
}

// TestVerdictMemoTake: take reuses the rows it has and frees every
// entry, and grows only for a larger shard.
func TestVerdictMemoTake(t *testing.T) {
	var m verdictMemo
	m.take(4)
	rows := &m.rows[0]
	m.rows[3][7].state.Store(verdictRight)
	m.rows[3][7].response = "c"
	m.take(3)
	if &m.rows[0] != rows || len(m.rows) != 3 {
		t.Fatal("take(3) after take(4) did not reuse the rows")
	}
	m.take(4)
	if s := m.rows[3][7].state.Load(); s != verdictFree {
		t.Errorf("entry kept state %d across take", s)
	}
	m.take(5)
	if len(m.rows) != 5 {
		t.Errorf("take(5): %d rows", len(m.rows))
	}
}
