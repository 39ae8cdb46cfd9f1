package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

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
