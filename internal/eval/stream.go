package eval

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// Streaming evaluation: the Runner's one static run path. A fold too
// large to hold in memory arrives shard by shard, and EvaluateAll is
// the one-shard case over a whole benchmark. The stream callback drives
// the run — StreamExtended regenerates shards, StreamPack decodes them
// from a packed fold — and each shard runs as one pipeline over its
// model-major grid.
//
// A call pays for its buffers once, not once per shard. Its shards'
// pipelines borrow one reorder ring (reorderRing), which grows only
// when a later shard needs more slots than the earlier ones did; events
// a shard leaves in the ring keep that shard's questions reachable
// until the next shard's events overwrite them or the call returns.
// When the stream knows its fold's size (dataset.Shard.Total), each
// report's Results gets exactly that capacity at the first shard;
// otherwise (StreamPack) the results grow by appending.
//
// A call of two or more models also keeps one verdict memo
// (verdict.go): a row of up to 8 (response, verdict) entries per
// question of the current shard, so each distinct (question, response)
// pair of a shard is judged about once instead of once per model. It
// is sound because a verdict depends only on the question, the
// response and the Runner's Judge, all fixed for a shard. A Table II
// sweep has 1,061 distinct pairs in 3,408 events, a 16x extended
// shard 4,328 in 12,000. A single-model call has no repeated pair to
// find and skips the memo. Between shards the memo keeps its rows,
// growing them only for a larger shard, and resets their states;
// stale responses stay in the entries, never read, until a claim
// overwrites them or the call returns. Nothing outlives the call.
//
// Reports are byte-identical to a monolithic EvaluateAll over the
// concatenated questions: every stochastic decision in the pipeline is
// keyed by (model, question, stage) and never by a question's position
// in the run, so evaluating a question inside shard 7 of 100 produces
// exactly the result it has inside one monolithic benchmark. Within a
// shard the grid is model-major and the sink consumes in Seq order, so
// each model's Results fill in question order across shards too.

// EvaluateShardsContext runs every model over a shard stream, writing
// into caller-retained reports (one per model, same order). stream must
// call its yield for each shard in canonical order (dataset.Shard
// semantics) and return yield's error unchanged; both shard producers
// in this repository do. The models' names must be distinct: each
// event is filed under its model's report by name. On cancel the error
// is ctx.Err() and each report holds a consistent prefix: shards before
// the cut-off are complete, the shard at the cut-off contributes a
// prefix of its own model-major order.
//
// An Observer on the Runner sees events with shard-local Seq values
// (each shard runs its own pipeline); order within a shard is still
// the deterministic canonical order.
func (r Runner) EvaluateShardsContext(ctx context.Context, models []Model, stream func(func(dataset.Shard) error) error, reports []*Report) error {
	if len(reports) != len(models) {
		return fmt.Errorf("eval: %d reports for %d models", len(reports), len(models))
	}
	if stream == nil {
		return fmt.Errorf("eval: nil shard stream")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sink, err := newReportSink(models, reports)
	if err != nil {
		return err
	}
	for _, rep := range reports {
		rep.Results = rep.Results[:0]
	}
	if len(models) == 0 {
		return nil
	}
	// What the shards share, in one allocation for the whole call.
	c := &shardCall{sink: sink, memo: verdictMemo{judge: r.Judge}}
	// One model judges each (question, response) pair once anyway.
	var memo *verdictMemo
	if len(models) >= 2 {
		memo = &c.memo
	}
	return stream(func(sh dataset.Shard) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, rep := range reports {
			rep.Results = sizeResults(rep.Results, sh.Total)
		}
		if len(sh.Questions) == 0 {
			return nil
		}
		if memo != nil {
			memo.take(len(sh.Questions))
		}
		return r.run(ctx, newSourceScheduler(gridSource{models: models, questions: sh.Questions}), &c.sink, &c.ring, memo)
	})
}

// shardCall is the state one EvaluateShardsContext call keeps across
// its shards: the sink, and the reorder ring and verdict memo every
// shard's pipeline borrows.
type shardCall struct {
	sink reportSink
	ring reorderRing
	memo verdictMemo
}
