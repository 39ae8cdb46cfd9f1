package eval

import (
	"context"
	"fmt"
)

// Adaptive evaluation entry point: run the staged pipeline off a
// dynamic ItemScheduler (internal/adaptive.Tournament is the
// production implementation) instead of a static grid. Events
// interleave models in the scheduler's canonical issue order; the
// report sink files each under its model by name, so within one model
// results land in the order its questions were asked — the model's
// adaptive transcript.

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
	for i := range reports {
		reports[i] = &Report{}
	}
	sink, err := newReportSink(models, reports)
	if err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return reports, nil
	}
	return reports, r.run(ctx, sched, &sink, nil, nil)
}
