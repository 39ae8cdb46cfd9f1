package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

// wedgeStage is an Inference and JudgeStage whose inference of Seq 0
// blocks until release is closed or the run's context ends; every
// other event answers at once. It counts judged events.
type wedgeStage struct {
	release chan struct{}
	judged  atomic.Int64
}

func (s *wedgeStage) Infer(ctx context.Context, ev *Event) {
	if ev.Seq == 0 {
		select {
		case <-s.release:
		case <-ctx.Done():
		}
	}
	ev.Response = ev.Model.Answer(ev.Question, InferenceOptions{})
}

func (s *wedgeStage) Judge(_ context.Context, ev *Event) {
	ev.Correct = Judge{}.Correct(ev.Question, ev.Response)
	s.judged.Add(1)
}

// constStage is an Inference and JudgeStage whose output is constant.
type constStage struct{}

func (constStage) Infer(_ context.Context, ev *Event) { ev.Response = "c" }
func (constStage) Judge(_ context.Context, ev *Event) { ev.Correct = true }

// nopSink discards every event.
type nopSink struct{}

func (nopSink) Consume(Event) {}

// lineSink renders each delivered event as one line.
type lineSink struct{ lines []string }

func (s *lineSink) Consume(ev Event) {
	s.lines = append(s.lines, fmt.Sprintf("%d %s %s %q %v", ev.Seq, ev.Model.Name(), ev.Question.ID, ev.Response, ev.Correct))
}

// awaitingWindow counts goroutines blocked in the reorder window's
// backpressure wait.
func awaitingWindow() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "(*delivery).await") {
			n++
		}
	}
	return n
}

// wedgedGrid is a static grid more than twice the reorder window of a
// run with the given workers.
func wedgedGrid(workers int) gridSource {
	b := testBenchmark(64)
	models := make([]Model, 2*ringPerWorker*workers/b.Len()+1)
	for i := range models {
		name := fmt.Sprintf("m%d", i)
		models[i] = fixedModel{name, func(q *dataset.Question) string {
			if (len(name)+int(q.ID[len(q.ID)-1]))%2 == 0 {
				return "c"
			}
			return "a"
		}}
	}
	return gridSource{models: models, questions: b.Questions}
}

// TestRingWedgedModel is the reorder window's memory bound: with Seq 0
// wedged, the other workers fill the ring and then wait on
// backpressure — parked, not spinning — with at most W events parked.
// Released, the run completes byte-identical to a serial one; cancelled
// while wedged, it returns ctx.Err() with nothing delivered.
func TestRingWedgedModel(t *testing.T) {
	const workers = 3
	src := wedgedGrid(workers)
	w := ringSize(newSourceScheduler(src), workers)
	if src.Len() <= w {
		t.Fatalf("grid of %d events fits the %d-slot window", src.Len(), w)
	}
	serial := &lineSink{}
	sp := &Pipeline{Source: src, Infer: modelInference{}, Judge: judgeStage{}, Sink: serial, Workers: 1}
	if err := sp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	start := func(ctx context.Context) (*wedgeStage, *lineSink, chan error) {
		st, sink := &wedgeStage{release: make(chan struct{})}, &lineSink{}
		p := &Pipeline{Source: src, Infer: st, Judge: st, Sink: sink, Workers: workers}
		done := make(chan error, 1)
		go func() { done <- p.Run(ctx) }()
		deadline := time.Now().Add(10 * time.Second)
		for awaitingWindow() < workers-1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d unwedged workers waiting on the window after 10s; judged %d",
					awaitingWindow(), workers-1, st.judged.Load())
			}
			time.Sleep(time.Millisecond)
		}
		// Each waiting worker holds its own judged event; the rest are
		// parked in the ring. Nothing moves while Seq 0 is wedged.
		parked := st.judged.Load() - (workers - 1)
		if parked > int64(w) {
			t.Fatalf("%d events parked, window is %d", parked, w)
		}
		time.Sleep(20 * time.Millisecond)
		if j := st.judged.Load(); j != parked+workers-1 {
			t.Fatalf("judged %d events while wedged, then %d: workers did not stop at the window", parked+workers-1, j)
		}
		if len(sink.lines) != 0 {
			t.Fatalf("delivered %d events ahead of the wedged Seq 0", len(sink.lines))
		}
		return st, sink, done
	}

	st, sink, done := start(context.Background())
	close(st.release)
	if err := <-done; err != nil {
		t.Fatalf("released run: %v", err)
	}
	if len(sink.lines) != len(serial.lines) {
		t.Fatalf("released run delivered %d events, serial %d", len(sink.lines), len(serial.lines))
	}
	for i := range serial.lines {
		if sink.lines[i] != serial.lines[i] {
			t.Fatalf("event %d: %s, serial %s", i, sink.lines[i], serial.lines[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	_, sink, done = start(ctx)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled while wedged: err = %v, want context.Canceled", err)
	}
	if len(sink.lines) != 0 {
		t.Fatalf("cancelled while wedged: delivered %d events, want the empty prefix", len(sink.lines))
	}
}

// TestRingRepeatedSeqInWindow: a Seq issued again while its first copy
// is still parked in the ring fails the run with the repeated-Seq error.
func TestRingRepeatedSeqInWindow(t *testing.T) {
	b := testBenchmark(11)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	st := &wedgeStage{release: make(chan struct{})}
	sink := &lineSink{}
	p := &Pipeline{
		Scheduler: &seqScheduler{model: m, questions: b.Questions, seqs: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5}},
		Infer:     st,
		Judge:     st,
		Sink:      sink,
		Workers:   4,
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for st.judged.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("judged %d of the 10 events behind the wedge after 10s", st.judged.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(st.release)
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "issued Seq 5 twice") {
		t.Fatalf("err = %v, want the repeated Seq 5", err)
	}
	if len(sink.lines) != 0 {
		t.Fatalf("delivered %d events past a repeated Seq", len(sink.lines))
	}
}

// TestRingSeqBeyondWindow: a Seq issued past the window waits for room
// that never comes once the other workers have finished; the run must
// still end, with the skipped-Seq error, instead of parking forever.
func TestRingSeqBeyondWindow(t *testing.T) {
	b := testBenchmark(6)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	for _, workers := range []int{1, 4} {
		far := ringPerWorker*workers*3 + 5
		p := &Pipeline{
			Scheduler: &seqScheduler{model: m, questions: b.Questions, seqs: []int{0, 1, 2, 3, 4, far}},
			Infer:     modelInference{},
			Judge:     judgeStage{},
			Sink:      &lineSink{},
			Workers:   workers,
		}
		done := make(chan error, 1)
		go func() { done <- p.Run(context.Background()) }()
		select {
		case err := <-done:
			if want := "skipped Seq 5; 1 later events undelivered"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: err = %v, want it to contain %q", workers, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Run still parked after 10s", workers)
		}
	}
}

// doneOnceScheduler answers Done to its first Next and Wait to every
// later one, with no event ever issued: a non-sticky Done.
type doneOnceScheduler struct{ calls atomic.Int64 }

func (s *doneOnceScheduler) Next() (Event, ScheduleState) {
	if s.calls.Add(1) == 1 {
		return Event{}, ScheduleDone
	}
	return Event{}, ScheduleWait
}

func (s *doneOnceScheduler) Record(*Event) {}

// TestNonStickyDoneFailsRun: a worker that exits on Done leaves the
// others waiting on a gate nothing can pulse; the run must fail with
// the stuck-wait error instead of parking them forever.
func TestNonStickyDoneFailsRun(t *testing.T) {
	p := &Pipeline{Scheduler: &doneOnceScheduler{}, Infer: constStage{}, Judge: constStage{}, Workers: 3}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	select {
	case err := <-done:
		if want := "waits with no outstanding events after 0 delivered"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still parked after 10s")
	}
}

// TestRingSize pins the window rule: 4,096 slots per worker, clamped
// to a static source's length and capped for any worker count.
func TestRingSize(t *testing.T) {
	b := testBenchmark(10)
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	static := newSourceScheduler(gridSource{models: []Model{m}, questions: b.Questions})
	for _, c := range []struct {
		sched   ItemScheduler
		workers int
		want    int
	}{
		{&chainScheduler{}, 1, ringPerWorker},
		{&chainScheduler{}, 2, 2 * ringPerWorker},
		{&chainScheduler{}, 1000, ringMax},
		{static, 2, b.Len()},
		{newSourceScheduler(gridSource{models: []Model{m}}), 2, 1},
	} {
		if got := ringSize(c.sched, c.workers); got != c.want {
			t.Errorf("ringSize(%T, %d) = %d, want %d", c.sched, c.workers, got, c.want)
		}
	}
}
