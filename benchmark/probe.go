package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// This file holds the traced run's instruments: eval.Pipeline stages
// that time each call into the layer below and feed layerStats, and the
// digest every correctness check compares.

// layerStats aggregates per-event timings of one traced phase.
type layerStats struct {
	answer1, answer8, answer16, judge, reorder, deliver hist
	pipeStart                                           hist
	next, record, shardGen                              hist

	events, nextCalls, nextWaits atomic.Int64
	busyNs, inferNs, workerNs    atomic.Int64 // infer+judge, infer, pipeline wall × workers

	genNs, genQ [dataset.NumCategories]atomic.Int64
}

// values renders the eval, vlm, core and adaptive layer metrics over a
// phase of the given wall time.
func (s *layerStats) values(wall time.Duration) map[string]float64 {
	share := func(ns int64, of float64) float64 {
		if of == 0 {
			return 0
		}
		return float64(ns) / of
	}
	worker := float64(s.workerNs.Load())
	v := map[string]float64{
		"eval.events":                float64(s.events.Load()),
		"eval.worker_busy_share":     share(s.busyNs.Load(), worker),
		"eval.judge_ns_mean":         s.judge.meanNs(),
		"eval.reorder_wait_us_p50":   s.reorder.quantileNs(0.5) / 1e3,
		"eval.reorder_wait_us_p99":   s.reorder.quantileNs(0.99) / 1e3,
		"eval.deliver_ns_mean":       s.deliver.meanNs(),
		"eval.pipeline_start_us_p50": s.pipeStart.quantileNs(0.5) / 1e3,
		"vlm.answers":                float64(s.answer1.count() + s.answer8.count() + s.answer16.count()),
		"vlm.answer_ns_mean_1x":      s.answer1.meanNs(),
		"vlm.answer_ns_mean_8x":      s.answer8.meanNs(),
		"vlm.answer_ns_mean_16x":     s.answer16.meanNs(),
		"vlm.busy_share":             share(s.inferNs.Load(), worker),
		"core.shard_gen_ms_p50":      s.shardGen.quantileNs(0.5) / 1e6,
		"adaptive.next_ns_mean":      s.next.meanNs(),
		"adaptive.record_ns_mean":    s.record.meanNs(),
	}
	var gen int64
	for c, name := range genNames {
		gen += s.genNs[c].Load()
		if q := s.genQ[c].Load(); q > 0 {
			v["gen."+name+".us_per_q"] = float64(s.genNs[c].Load()) / float64(q) / 1e3
		}
	}
	v["core.gen_busy_share"] = share(gen, float64(wall))
	if n := s.nextCalls.Load(); n > 0 {
		v["adaptive.wait_share"] = float64(s.nextWaits.Load()) / float64(n)
	}
	return v
}

// answer records the time of one model answer at its downsampling
// factor.
func (s *layerStats) answer(opts eval.InferenceOptions, d time.Duration) {
	switch opts.DownsampleFactor {
	case 0, 1:
		s.answer1.add(d)
	case 8:
		s.answer8.add(d)
	case 16:
		s.answer16.add(d)
	}
	s.inferNs.Add(int64(d))
}

// genNames are the per-discipline metric names in category order.
var genNames = [dataset.NumCategories]string{"digital", "analog", "arch", "manuf", "phys"}

// probe is the Inference, JudgeStage and Sink of one traced pipeline
// run. Judge time includes the eval.Judge scratch-pool get and put that
// Judge.Correct does; the production pipeline reuses one scratch per
// worker instead.
type probe struct {
	st      *layerStats
	tr      *tracer
	span    int64 // this pipeline's span; sampled event spans hang off it
	req     int64
	opts    eval.InferenceOptions
	consume func(ev eval.Event)

	runAt   time.Time
	started atomic.Bool
	mu      sync.Mutex
	judged  map[int]time.Time // judge end per Seq, until delivered
}

func (p *probe) Infer(_ context.Context, ev *eval.Event) {
	t0 := now()
	if p.started.CompareAndSwap(false, true) {
		p.st.pipeStart.add(t0.Sub(p.runAt))
	}
	ev.Response = ev.Model.Answer(ev.Question, p.opts)
	t1 := now()
	d := t1.Sub(t0)
	p.st.answer(p.opts, d)
	p.st.busyNs.Add(int64(d))
	if ev.Seq%sampleEvery == 0 {
		p.tr.add(p.tr.id(), p.span, p.req, "vlm.answer", t0, t1)
	}
}

func (p *probe) Judge(_ context.Context, ev *eval.Event) {
	t0 := now()
	ev.Correct = eval.Judge{}.Correct(ev.Question, ev.Response)
	t1 := now()
	p.st.judge.add(t1.Sub(t0))
	p.st.busyNs.Add(int64(t1.Sub(t0)))
	p.mu.Lock()
	p.judged[ev.Seq] = t1
	p.mu.Unlock()
	if ev.Seq%sampleEvery == 0 {
		p.tr.add(p.tr.id(), p.span, p.req, "eval.judge", t0, t1)
	}
}

func (p *probe) Consume(ev eval.Event) {
	t0 := now()
	p.mu.Lock()
	judged := p.judged[ev.Seq]
	delete(p.judged, ev.Seq)
	p.mu.Unlock()
	p.st.reorder.add(t0.Sub(judged))
	p.consume(ev)
	t1 := now()
	p.st.deliver.add(t1.Sub(t0))
	p.st.events.Add(1)
	if ev.Seq%sampleEvery == 0 {
		p.tr.add(p.tr.id(), p.span, p.req, "eval.deliver", t0, t1)
	}
}

// runProbed runs one eval.Pipeline over sched (or src) with the probe
// as its Infer, Judge and Sink stages, recording a span named name
// under parent.
func runProbed(ctx context.Context, st *layerStats, tr *tracer, parent, req int64, name string,
	opts eval.InferenceOptions, workers int, sched eval.ItemScheduler, src eval.Source, consume func(eval.Event)) error {
	p := &probe{st: st, tr: tr, span: tr.id(), req: req, opts: opts, consume: consume, judged: make(map[int]time.Time)}
	pl := &eval.Pipeline{Scheduler: sched, Source: src, Infer: p, Judge: p, Sink: p, Workers: workers}
	if src != nil {
		workers = min(workers, src.Len())
	}
	p.runAt = now()
	err := pl.Run(ctx)
	end := now()
	st.workerNs.Add(int64(end.Sub(p.runAt)) * int64(max(workers, 1)))
	tr.add(p.span, parent, req, name, p.runAt, end)
	return err
}

// grid is the model-major (model, question) task list a Table II sweep
// or a stream shard evaluates.
type grid struct {
	models []eval.Model
	qs     []*dataset.Question
}

func (g grid) Len() int { return len(g.models) * len(g.qs) }

func (g grid) Event(i int) eval.Event {
	nq := len(g.qs)
	return eval.Event{Seq: i, Model: g.models[i/nq], Question: g.qs[i%nq]}
}

// newReports returns one empty report per model.
func newReports(models []eval.Model) []*eval.Report {
	out := make([]*eval.Report, len(models))
	for i, m := range models {
		out[i] = &eval.Report{ModelName: m.Name()}
	}
	return out
}

func appendResult(r *eval.Report, ev eval.Event) {
	r.Results = append(r.Results, eval.QuestionResult{
		QuestionID: ev.Question.ID,
		Category:   ev.Question.Category,
		Response:   ev.Response,
		Correct:    ev.Correct,
	})
}

// runGrid evaluates the grid through a probed pipeline, appending each
// model's results to its report in question order.
func runGrid(ctx context.Context, st *layerStats, tr *tracer, parent, req int64,
	opts eval.InferenceOptions, workers int, g grid, reports []*eval.Report) error {
	nq := len(g.qs)
	return runProbed(ctx, st, tr, parent, req, "eval.pipeline", opts, workers, nil, g, func(ev eval.Event) {
		appendResult(reports[ev.Seq/nq], ev)
	})
}

// timedScheduler forwards to an adaptive tournament and times each
// call.
type timedScheduler struct {
	t  *adaptive.Tournament
	st *layerStats
}

func (s *timedScheduler) Next() (eval.Event, eval.ScheduleState) {
	t0 := now()
	ev, state := s.t.Next()
	s.st.next.add(since(t0))
	s.st.nextCalls.Add(1)
	if state == eval.ScheduleWait {
		s.st.nextWaits.Add(1)
	}
	return ev, state
}

func (s *timedScheduler) Record(ev *eval.Event) {
	t0 := now()
	s.t.Record(ev)
	s.st.record.add(since(t0))
}

// SizeHint lets the pipeline clamp its workers to the model count, as
// it does for the bare tournament.
func (s *timedScheduler) SizeHint() int { return s.t.SizeHint() }

// digest is the SHA-256 over every (model, question ID, response,
// verdict) of the report sets, in order.
func digest(sets ...[]*eval.Report) string {
	h := sha256.New()
	for _, set := range sets {
		for _, r := range set {
			for _, q := range r.Results {
				verdict := byte('0')
				if q.Correct {
					verdict = '1'
				}
				_, _ = h.Write([]byte(r.ModelName))
				_, _ = h.Write([]byte{0})
				_, _ = h.Write([]byte(q.QuestionID))
				_, _ = h.Write([]byte{0})
				_, _ = h.Write([]byte(q.Response))
				_, _ = h.Write([]byte{0, verdict, '\n'})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flipModel answers like its model except on one question, where it
// answers wrong: the fault the smoke test injects.
type flipModel struct {
	eval.Model
	question string
}

func (m flipModel) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	if q.ID == m.question {
		return "flipped"
	}
	return m.Model.Answer(q, opts)
}

// withFault returns models unchanged, or with the first model wrapped
// to answer question id wrong when the run injects a fault.
func withFault(cfg config, models []eval.Model, id string) []eval.Model {
	if !cfg.faulty {
		return models
	}
	out := append([]eval.Model(nil), models...)
	out[0] = flipModel{Model: out[0], question: id}
	return out
}
