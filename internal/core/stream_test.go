package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
)

func benchmarkJSON(t *testing.T, b *dataset.Benchmark) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// collectExtended concatenates StreamExtended's shards into one fold,
// named like BuildExtended's, for the stream-vs-monolith comparisons.
func collectExtended(t *testing.T, seed string, perCategory, shardSize int) *dataset.Benchmark {
	t.Helper()
	b := &dataset.Benchmark{Name: fmt.Sprintf("ChipVQA-extended-%s", seed)}
	err := StreamExtended(seed, perCategory, shardSize, func(s dataset.Shard) error {
		b.Questions = append(b.Questions, s.Questions...)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamExtended(%s, shard=%d): %v", seed, shardSize, err)
	}
	return b
}

// TestStreamMatchesMonolith is the core determinism contract of the
// shard pipeline: the streamed fold, concatenated, must be
// byte-identical to BuildExtended — including with a shard size that
// does not divide the total and one larger than the whole fold.
func TestStreamMatchesMonolith(t *testing.T) {
	mono, err := BuildExtended("stream-a", 40)
	if err != nil {
		t.Fatalf("BuildExtended: %v", err)
	}
	monoJSON := benchmarkJSON(t, mono)
	for _, shardSize := range []int{1, 7, 37, 40, 200, 1000} {
		streamed := collectExtended(t, "stream-a", 40, shardSize)
		if got := benchmarkJSON(t, streamed); !bytes.Equal(got, monoJSON) {
			t.Errorf("shard size %d: streamed fold differs from monolithic build", shardSize)
		}
	}
}

// TestStreamShardGeometry checks that shards arrive in order, cover the
// fold exactly once, and only the final shard is short.
func TestStreamShardGeometry(t *testing.T) {
	const perCategory, shardSize = 13, 9
	total := 5 * perCategory
	next, idx := 0, 0
	err := StreamExtended("geom", perCategory, shardSize, func(s dataset.Shard) error {
		if s.Index != idx {
			t.Errorf("shard index = %d, want %d", s.Index, idx)
		}
		if s.Start != next {
			t.Errorf("shard %d start = %d, want %d", s.Index, s.Start, next)
		}
		if s.End() < total && len(s.Questions) != shardSize {
			t.Errorf("shard %d has %d questions, want %d", s.Index, len(s.Questions), shardSize)
		}
		next = s.End()
		idx++
		return nil
	})
	if err != nil {
		t.Fatalf("StreamExtended: %v", err)
	}
	if next != total {
		t.Errorf("stream covered %d questions, want %d", next, total)
	}
}

// TestStreamFoldsDisjointAtShardBoundaries is the scale variant of the
// fold-disjointness guarantee: two folds streamed with a large
// perCategory and a shard size that straddles category boundaries must
// share no question IDs, and each fold must be byte-identical whether
// built monolithically or via StreamExtended.
func TestStreamFoldsDisjointAtShardBoundaries(t *testing.T) {
	const perCategory, shardSize = 2000, 777
	seen := make(map[string]string, 2*5*perCategory)
	for _, seed := range []string{"fold-a", "fold-b"} {
		err := StreamExtended(seed, perCategory, shardSize, func(s dataset.Shard) error {
			for _, q := range s.Questions {
				if prev, dup := seen[q.ID]; dup {
					return fmt.Errorf("ID %s appears in folds %s and %s", q.ID, prev, seed)
				}
				seen[q.ID] = seed
			}
			return nil
		})
		if err != nil {
			t.Fatalf("StreamExtended(%s): %v", seed, err)
		}
	}
	if want := 2 * 5 * perCategory; len(seen) != want {
		t.Fatalf("saw %d distinct IDs, want %d", len(seen), want)
	}
	// Identity monolith-vs-stream at a smaller size keeps the test fast;
	// combined with the pure-per-index generators it extends to any size.
	for _, seed := range []string{"fold-a", "fold-b"} {
		mono, err := BuildExtended(seed, 60)
		if err != nil {
			t.Fatalf("BuildExtended(%s): %v", seed, err)
		}
		streamed := collectExtended(t, seed, 60, shardSize)
		if !bytes.Equal(benchmarkJSON(t, mono), benchmarkJSON(t, streamed)) {
			t.Errorf("fold %s: streamed build differs from monolithic build", seed)
		}
	}
}

func TestStreamExtendedRejectsBadArgs(t *testing.T) {
	nop := func(dataset.Shard) error { return nil }
	if err := StreamExtended("s", 0, 4, nop); err == nil {
		t.Error("perCategory=0 accepted")
	}
	if err := StreamExtended("s", 4, 0, nop); err == nil {
		t.Error("shardSize=0 accepted")
	}
	if err := StreamExtended("s", 4, 4, nil); err == nil {
		t.Error("nil yield accepted")
	}
}

func TestStreamExtendedStopsOnYieldError(t *testing.T) {
	sentinel := errors.New("stop here")
	calls := 0
	err := StreamExtended("stop", 10, 5, func(s dataset.Shard) error {
		calls++
		if s.Index == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Errorf("yield called %d times, want 3", calls)
	}
}

// TestStreamShardsNeverAlias pins the lookahead's hand-over: shard k+1
// is built while yield still holds shard k, so every shard must own a
// fresh Questions slice that nothing touches after it is yielded. Each
// retained slice is compared against a copy taken at yield time once
// the whole stream has run.
func TestStreamShardsNeverAlias(t *testing.T) {
	const perCategory = 13 // 65 questions
	for _, shardSize := range []int{1, 9, 65, 100} {
		var kept, copies [][]*dataset.Question
		err := StreamExtended("alias", perCategory, shardSize, func(s dataset.Shard) error {
			kept = append(kept, s.Questions)
			copies = append(copies, append([]*dataset.Question(nil), s.Questions...))
			return nil
		})
		if err != nil {
			t.Fatalf("shard size %d: %v", shardSize, err)
		}
		if want := (5*perCategory + shardSize - 1) / shardSize; len(kept) != want {
			t.Fatalf("shard size %d: %d shards, want %d", shardSize, len(kept), want)
		}
		for k := range kept {
			if len(kept[k]) != len(copies[k]) {
				t.Fatalf("shard size %d: shard %d length changed from %d to %d",
					shardSize, k, len(copies[k]), len(kept[k]))
			}
			for i, q := range kept[k] {
				if q != copies[k][i] {
					t.Errorf("shard size %d: shard %d question %d rewritten after yield", shardSize, k, i)
				}
			}
		}
	}
}

// TestStreamExtendedJoinsLookaheadOnYieldError stops the stream at its
// first and at a middle shard, each time with the next shard under
// construction, once more by a panic in yield. The yield error (or
// panic) must come back unchanged, and the lookahead must already be
// gone: the goroutine count returns to its value before the call within
// a few milliseconds, far less than the time building one of these
// 5,000-question shards takes.
func TestStreamExtendedJoinsLookaheadOnYieldError(t *testing.T) {
	sentinel := errors.New("stop here")
	for _, tc := range []struct {
		failAt int
		panics bool
	}{{0, false}, {1, false}, {1, true}} {
		before := runtime.NumGoroutine()
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = p.(error)
				}
			}()
			err = StreamExtended("join", 3000, 5000, func(s dataset.Shard) error {
				if s.Index != tc.failAt {
					return nil
				}
				if tc.panics {
					panic(sentinel)
				}
				return sentinel
			})
		}()
		if !errors.Is(err, sentinel) {
			t.Fatalf("%+v: err = %v, want sentinel", tc, err)
		}
		// A joined goroutine may still be executing its last
		// instructions after its send; allow it that, and no more.
		deadline := time.Now().Add(25 * time.Millisecond)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%+v: %d goroutines after StreamExtended returned, %d before", tc, after, before)
		}
	}
}
