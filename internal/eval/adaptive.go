package eval

import (
	"context"
	"fmt"
)

// Adaptive evaluation entry point: run the staged pipeline off a
// dynamic ItemScheduler (internal/adaptive.Tournament is the
// production implementation) instead of a static grid. Events
// interleave models in the scheduler's canonical issue order, so the
// report sink keys results by model identity rather than by Seq
// arithmetic; within one model, results land in the order its
// questions were asked — the model's adaptive transcript.

// modelSink routes each event to its model's report. The pipeline
// calls Consume in Seq order from one goroutine, so per-model result
// order is the deterministic delivery order restricted to that model.
type modelSink struct {
	index   map[string]int
	reports []*Report
}

func (s *modelSink) Consume(ev Event) {
	mi, ok := s.index[ev.Model.Name()]
	if !ok {
		return
	}
	s.reports[mi].Results = append(s.reports[mi].Results, QuestionResult{
		QuestionID: ev.Question.ID,
		Category:   ev.Question.Category,
		Response:   ev.Response,
		Correct:    ev.Correct,
	})
}

// EvaluateAdaptiveContext runs the models against a dynamic scheduler
// and returns one report per model, in input order. The scheduler
// decides which (model, question) pairs run and when each model stops;
// see internal/adaptive for the IRT tournament that drives this. On
// cancel it returns ctx.Err() and the reports hold the deterministic
// delivered prefix of the adaptive transcript — the same events, byte
// for byte, that a full run would have delivered first. Observers on the Runner see every event in canonical order
// with the scheduler's annotations (ability, stop reason) applied.
func (r Runner) EvaluateAdaptiveContext(ctx context.Context, models []Model, sched ItemScheduler) ([]*Report, error) {
	if sched == nil {
		return nil, fmt.Errorf("eval: nil adaptive scheduler")
	}
	reports := make([]*Report, len(models))
	sink := &modelSink{index: make(map[string]int, len(models)), reports: reports}
	for i, m := range models {
		reports[i] = &Report{ModelName: m.Name()}
		if _, dup := sink.index[m.Name()]; dup {
			return nil, fmt.Errorf("eval: duplicate model %q", m.Name())
		}
		sink.index[m.Name()] = i
	}
	if len(models) == 0 {
		return reports, nil
	}
	return reports, r.run(ctx, sched, sink, nil)
}
