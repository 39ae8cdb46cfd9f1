package eval

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestPipelineMatchesMonolith pins the tentpole refactor's equivalence
// guarantee at the unit level: the staged pipeline must produce exactly
// the results the old fused loop produced, for serial and pooled runs.
func TestPipelineMatchesMonolith(t *testing.T) {
	b := testBenchmark(37)
	m := fixedModel{"m", func(q *dataset.Question) string {
		if q.ID[len(q.ID)-1]%2 == 0 {
			return "c"
		}
		return "b"
	}}
	want := func() []QuestionResult {
		j := Judge{}
		var out []QuestionResult
		for _, q := range b.Questions {
			resp := m.fn(q)
			out = append(out, QuestionResult{
				QuestionID: q.ID, Category: q.Category,
				Response: resp, Correct: j.Correct(q, resp),
			})
		}
		return out
	}()
	for _, workers := range []int{0, 1, 8} {
		rep := Runner{Workers: workers}.Evaluate(m, b)
		if len(rep.Results) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(rep.Results), len(want))
		}
		for i := range want {
			if rep.Results[i] != want[i] {
				t.Fatalf("workers=%d result %d: %+v, want %+v", workers, i, rep.Results[i], want[i])
			}
		}
	}
}

// TestObserverSeesEventsInOrder is the event-ordering guarantee of the
// Observer seam: regardless of worker count, events arrive with
// strictly increasing Seq covering the whole run, with stage fields
// populated.
func TestObserverSeesEventsInOrder(t *testing.T) {
	b := testBenchmark(40)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	for _, workers := range []int{1, 8} {
		var seqs []int
		r := Runner{Workers: workers, Observer: ObserverFunc(func(ev Event) {
			seqs = append(seqs, ev.Seq)
			if ev.Question == nil || ev.Response == "" || ev.Model == nil {
				t.Fatalf("workers=%d: observer saw incomplete event %+v", workers, ev)
			}
		})}
		if _, err := r.EvaluateContext(context.Background(), m, b); err != nil {
			t.Fatal(err)
		}
		if len(seqs) != b.Len() {
			t.Fatalf("workers=%d: observed %d events, want %d", workers, len(seqs), b.Len())
		}
		for i, s := range seqs {
			if s != i {
				t.Fatalf("workers=%d: event %d has seq %d (out of order)", workers, i, s)
			}
		}
	}
}

// TestObserverGridOrder checks the grid run's canonical order: the
// flattened model-major task index, so model boundaries land at
// multiples of the question count.
func TestObserverGridOrder(t *testing.T) {
	b := testBenchmark(11)
	models := []Model{
		fixedModel{"m1", func(*dataset.Question) string { return "c" }},
		fixedModel{"m2", func(*dataset.Question) string { return "a" }},
		fixedModel{"m3", func(*dataset.Question) string { return "b" }},
	}
	var names []string
	r := Runner{Workers: 8, Observer: ObserverFunc(func(ev Event) {
		names = append(names, ev.Model.Name())
	})}
	if _, err := r.EvaluateAllContext(context.Background(), models, b); err != nil {
		t.Fatal(err)
	}
	if len(names) != 3*b.Len() {
		t.Fatalf("observed %d events, want %d", len(names), 3*b.Len())
	}
	for i, name := range names {
		if want := models[i/b.Len()].Name(); name != want {
			t.Fatalf("event %d from %s, want %s (model-major order)", i, name, want)
		}
	}
}

// TestEvaluateContextCancelPartialReport is the cancellation guarantee:
// an observer that cancels after the K-th event yields a partial
// report of exactly K+1 results — the canonical prefix — identical
// across worker counts and byte-identical to the full run's prefix.
func TestEvaluateContextCancelPartialReport(t *testing.T) {
	const cancelAt = 12
	b := testBenchmark(50)
	m := fixedModel{"m", func(q *dataset.Question) string {
		if q.ID[len(q.ID)-1]%3 == 0 {
			return "c"
		}
		return "a"
	}}
	full := Runner{Workers: 1}.Evaluate(m, b)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		r := Runner{Workers: workers, Observer: ObserverFunc(func(ev Event) {
			if ev.Seq == cancelAt {
				cancel()
			}
		})}
		rep, err := r.EvaluateContext(ctx, m, b)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(rep.Results) != cancelAt+1 {
			t.Fatalf("workers=%d: partial report has %d results, want %d",
				workers, len(rep.Results), cancelAt+1)
		}
		for i := range rep.Results {
			if rep.Results[i] != full.Results[i] {
				t.Fatalf("workers=%d: partial result %d differs from full run: %+v vs %+v",
					workers, i, rep.Results[i], full.Results[i])
			}
		}
	}
}

// TestEvaluateAllContextCancelPrefix checks the grid variant's partial
// shape: models before the cut are complete, the model at the cut has
// a prefix, later models are empty.
func TestEvaluateAllContextCancelPrefix(t *testing.T) {
	b := testBenchmark(10)
	models := []Model{
		fixedModel{"m1", func(*dataset.Question) string { return "c" }},
		fixedModel{"m2", func(*dataset.Question) string { return "a" }},
		fixedModel{"m3", func(*dataset.Question) string { return "b" }},
	}
	cancelAt := b.Len() + 4 // 5th question of the second model
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		r := Runner{Workers: workers, Observer: ObserverFunc(func(ev Event) {
			if ev.Seq == cancelAt {
				cancel()
			}
		})}
		reps, err := r.EvaluateAllContext(ctx, models, b)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		wantLens := []int{b.Len(), 5, 0}
		for mi, rep := range reps {
			if len(rep.Results) != wantLens[mi] {
				t.Fatalf("workers=%d: model %d has %d results, want %d",
					workers, mi, len(rep.Results), wantLens[mi])
			}
		}
	}
}

// TestEvaluateContextAlreadyCancelled: a dead context yields an empty
// (but well-formed) report and the context error, for both engines.
func TestEvaluateContextAlreadyCancelled(t *testing.T) {
	b := testBenchmark(10)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		rep, err := Runner{Workers: workers}.EvaluateContext(ctx, m, b)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if rep.ModelName != "m" || len(rep.Results) != 0 {
			t.Fatalf("workers=%d: report %+v, want empty report for model m", workers, rep)
		}
	}
}

// TestObserverTimestampsUseClockSeam pins the observability clock: a
// pipeline with an injected clock stamps every event from it, so no
// raw wall-clock read sneaks into the hot path (nodeterm enforces the
// same property statically).
func TestObserverTimestampsUseClockSeam(t *testing.T) {
	b := testBenchmark(6)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	fixed := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	var stamps []time.Time
	rep := &Report{ModelName: m.Name()}
	p := &Pipeline{
		Source:   gridSource{models: []Model{m}, questions: b.Questions},
		Infer:    modelInference{},
		Judge:    judgeStage{judge: Judge{}},
		Sink:     &reportSink{nq: b.Len(), reports: []*Report{rep}},
		Observer: ObserverFunc(func(ev Event) { stamps = append(stamps, ev.At) }),
		Workers:  4,
		Clock:    func() time.Time { return fixed },
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != b.Len() {
		t.Fatalf("observed %d events, want %d", len(stamps), b.Len())
	}
	for i, s := range stamps {
		if !s.Equal(fixed) {
			t.Fatalf("event %d stamped %v, want pinned clock %v", i, s, fixed)
		}
	}
}

// atSink records every event's At as the sink sees it.
type atSink struct{ stamps []time.Time }

func (s *atSink) Consume(ev Event) { s.stamps = append(s.stamps, ev.At) }

// TestNoClockReadWithoutObserver pins the other half of the clock seam:
// At is for observers only, so a pipeline without one never reads the
// clock and its sink sees zero timestamps.
func TestNoClockReadWithoutObserver(t *testing.T) {
	b := testBenchmark(6)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	sink := &atSink{}
	p := &Pipeline{
		Source:  gridSource{models: []Model{m}, questions: b.Questions},
		Infer:   modelInference{},
		Judge:   judgeStage{judge: Judge{}},
		Sink:    sink,
		Workers: 4,
		Clock: func() time.Time {
			t.Error("clock read with no observer attached")
			return time.Time{}
		},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.stamps) != b.Len() {
		t.Fatalf("sink saw %d events, want %d", len(sink.stamps), b.Len())
	}
	for i, s := range sink.stamps {
		if !s.IsZero() {
			t.Fatalf("event %d stamped %v without an observer", i, s)
		}
	}
}
