package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dataset"
)

// BuildExtended generates an extended collection beyond the fixed
// 142-question benchmark — the paper's stated future work
// ("ChipVQA-oriented dataset collection"). Each registered discipline
// contributes its ExtraAt questions 0..perCategory-1, one generation
// job per discipline; the seed makes disjoint collections ("fold-a",
// "fold-b", ...) for train/test studies. Like BuildBenchmark, assembly
// walks the dataset generator registry in canonical category order, so
// the result is byte-identical to concatenating StreamExtended's shards.
func BuildExtended(seed string, perCategory int) (*dataset.Benchmark, error) {
	if perCategory <= 0 {
		return nil, fmt.Errorf("core: perCategory must be positive, got %d", perCategory)
	}
	gens, err := registeredGenerators()
	if err != nil {
		return nil, err
	}
	b := &dataset.Benchmark{Name: fmt.Sprintf("ChipVQA-extended-%s", seed)}
	b.Questions = generateConcurrent(gens, func(g dataset.Generator) []*dataset.Question {
		qs := make([]*dataset.Question, perCategory)
		for i := range qs {
			qs[i] = g.ExtraAt(seed, i)
		}
		return qs
	})
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// StreamExtended generates the same fold as BuildExtended(seed,
// perCategory) but delivers it as a sequence of shards of at most
// shardSize questions, so a large fold never has to exist as a single
// slice. Shards arrive in canonical category-major order and
// concatenating them is byte-identical to the monolithic build: both
// loop each registered discipline's ExtraAt over the same (seed, index)
// pairs, and ExtraAt is a pure function of them.
//
// yield is called once per shard, in order, on the calling goroutine;
// returning a non-nil error stops the stream and propagates the error.
// Generation runs one shard ahead: while yield consumes shard k, one
// goroutine builds shard k+1, which is handed over when yield returns.
// Every shard gets its own freshly allocated Questions slice, so at
// most two shards are alive at once (the one yielded and the one being
// built) unless yield keeps them. A shard's validation error surfaces
// only after yield has accepted every earlier shard. When yield fails
// (or panics), the lookahead stops at its next question and is joined
// before StreamExtended returns: no goroutine outlives the call.
//
// ID disjointness needs no global dedup set here: every discipline
// prefixes its extended IDs with a distinct marker (xd-/xa-/xr-/xm-/
// xp-) followed by the seed and within-category index, so IDs are
// unique across categories and across folds by construction. Each
// question is still individually validated before delivery.
func StreamExtended(seed string, perCategory, shardSize int, yield func(dataset.Shard) error) error {
	if perCategory <= 0 {
		return fmt.Errorf("core: perCategory must be positive, got %d", perCategory)
	}
	if shardSize <= 0 {
		return fmt.Errorf("core: shardSize must be positive, got %d", shardSize)
	}
	if yield == nil {
		return fmt.Errorf("core: StreamExtended requires a yield callback")
	}
	gens, err := registeredGenerators()
	if err != nil {
		return err
	}
	total := len(gens) * perCategory
	type built struct {
		qs  []*dataset.Question
		err error
	}
	var stop atomic.Bool
	// build generates and validates questions [start, end), giving up
	// between questions once stop is set.
	build := func(start, end int) built {
		qs := make([]*dataset.Question, 0, end-start)
		for i := start; i < end && !stop.Load(); i++ {
			q := gens[i/perCategory].ExtraAt(seed, i%perCategory)
			if err := q.Validate(); err != nil {
				return built{err: err}
			}
			qs = append(qs, q)
		}
		return built{qs: qs}
	}
	ahead := make(chan built, 1)
	inflight := false
	defer func() {
		if inflight {
			stop.Store(true)
			<-ahead
		}
	}()
	cur := build(0, min(shardSize, total))
	for start, idx := 0, 0; ; start, idx = start+shardSize, idx+1 {
		if cur.err != nil {
			return fmt.Errorf("core: shard %d: %w", idx, cur.err)
		}
		next := start + shardSize
		inflight = next < total
		if inflight {
			go func() { ahead <- build(next, min(next+shardSize, total)) }()
		}
		if err := yield(dataset.Shard{Index: idx, Start: start, Questions: cur.qs}); err != nil {
			return err
		}
		if !inflight {
			return nil
		}
		cur, inflight = <-ahead, false
	}
}
