package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/dataset"
)

// These tests exercise the binary codec against real builds. They live
// here rather than in internal/dataset because this test binary links
// the five discipline packages (dataset's own test binary deliberately
// keeps the registry free for fakes).

func packBytes(t *testing.T, b *dataset.Benchmark) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WritePack(&buf, b); err != nil {
		t.Fatalf("WritePack: %v", err)
	}
	return buf.Bytes()
}

// TestPackRoundTripByteIdentical is the codec's core contract over a
// real extended fold: packing the loaded fold reproduces the original
// pack byte for byte, and the loaded fold is JSON-identical to the
// in-memory build (covering every serialised field plus nil-vs-empty
// normalisation).
func TestPackRoundTripByteIdentical(t *testing.T) {
	built, err := BuildExtended("codec", 50)
	if err != nil {
		t.Fatalf("BuildExtended: %v", err)
	}
	first := packBytes(t, built)
	loaded, err := dataset.ReadPack(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("ReadPack: %v", err)
	}
	if loaded.Name != built.Name {
		t.Errorf("name = %q, want %q", loaded.Name, built.Name)
	}
	if second := packBytes(t, loaded); !bytes.Equal(first, second) {
		t.Error("pack(load(pack(b))) differs from pack(b)")
	}
	if !bytes.Equal(benchmarkJSON(t, built), benchmarkJSON(t, loaded)) {
		t.Error("loaded fold not JSON-identical to in-memory build")
	}
}

// TestPackRoundTripStandardBenchmark covers the fixed 142-question
// collection — every discipline's hand-built question shapes.
func TestPackRoundTripStandardBenchmark(t *testing.T) {
	built, err := BuildBenchmark()
	if err != nil {
		t.Fatalf("BuildBenchmark: %v", err)
	}
	loaded, err := dataset.ReadPack(bytes.NewReader(packBytes(t, built)))
	if err != nil {
		t.Fatalf("ReadPack: %v", err)
	}
	if !bytes.Equal(benchmarkJSON(t, built), benchmarkJSON(t, loaded)) {
		t.Error("loaded benchmark not JSON-identical to built benchmark")
	}
}

// TestPackSmallerThanJSON pins the "compact" claim: well under half the
// JSON size on a realistic fold.
func TestPackSmallerThanJSON(t *testing.T) {
	b, err := BuildExtended("size", 100)
	if err != nil {
		t.Fatalf("BuildExtended: %v", err)
	}
	packed, js := len(packBytes(t, b)), len(benchmarkJSON(t, b))
	if packed*2 >= js {
		t.Errorf("pack %d bytes vs JSON %d bytes; want < 50%%", packed, js)
	}
}

// TestStreamPackMatchesStreamExtended closes the loop between the two
// shard producers: shards read back from a pack stream must match
// shards generated directly, in geometry and content.
func TestStreamPackMatchesStreamExtended(t *testing.T) {
	const perCategory, shardSize = 30, 11
	var buf bytes.Buffer
	pw := dataset.NewPackWriter(&buf, "ChipVQA-extended-sp")
	if err := StreamExtended("sp", perCategory, shardSize, pw.WriteShard); err != nil {
		t.Fatalf("StreamExtended: %v", err)
	}
	if err := pw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	type flat struct {
		index, start int
		ids          []string
	}
	var direct, packed []flat
	collect := func(dst *[]flat) func(dataset.Shard) error {
		return func(s dataset.Shard) error {
			f := flat{index: s.Index, start: s.Start}
			for _, q := range s.Questions {
				f.ids = append(f.ids, q.ID)
			}
			*dst = append(*dst, f)
			return nil
		}
	}
	if err := StreamExtended("sp", perCategory, shardSize, collect(&direct)); err != nil {
		t.Fatalf("StreamExtended pass 2: %v", err)
	}
	if err := dataset.StreamPack(bytes.NewReader(buf.Bytes()), shardSize, collect(&packed)); err != nil {
		t.Fatalf("StreamPack: %v", err)
	}
	if len(direct) != len(packed) {
		t.Fatalf("%d direct shards vs %d packed shards", len(direct), len(packed))
	}
	for i := range direct {
		if direct[i].index != packed[i].index || direct[i].start != packed[i].start {
			t.Errorf("shard %d geometry mismatch: (%d,%d) vs (%d,%d)", i,
				direct[i].index, direct[i].start, packed[i].index, packed[i].start)
		}
		if fmt.Sprint(direct[i].ids) != fmt.Sprint(packed[i].ids) {
			t.Errorf("shard %d content mismatch", i)
		}
	}
}

// TestPackColdLoadFasterThanRegeneration pins the perf motivation of
// the codec: at 10k-question scale, loading a packed fold must beat
// regenerating it by a wide margin. Generation is the serial streaming
// build — the apples-to-apples single-goroutine comparison. The
// measured ratio on the reference host is 10-12x (BenchmarkWritePack10k
// over BenchmarkReadPack10k reports it); the test gates at 7x so a
// noisy shared-CI scheduler cannot flake a genuinely order-of-magnitude
// win, while a real codec regression (ratio collapse) still fails.
func TestPackColdLoadFasterThanRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	const perCategory = 2000 // 10k questions
	const trials = 3         // min-of-N on both sides filters scheduler/GC noise
	var packed []byte
	genNS := int64(1 << 62)
	for i := 0; i < trials; i++ {
		var buf bytes.Buffer
		pw := dataset.NewPackWriter(&buf, "ChipVQA-extended-cold")
		start := time.Now()
		if err := StreamExtended("cold", perCategory, 512, pw.WriteShard); err != nil {
			t.Fatalf("StreamExtended: %v", err)
		}
		genNS = min(genNS, time.Since(start).Nanoseconds())
		if err := pw.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		packed = buf.Bytes()
	}
	loadNS := int64(1 << 62)
	for i := 0; i < trials; i++ {
		start := time.Now()
		loaded, err := dataset.ReadPackBytes(packed)
		if err != nil {
			t.Fatalf("ReadPackBytes: %v", err)
		}
		loadNS = min(loadNS, time.Since(start).Nanoseconds())
		if loaded.Len() != 5*perCategory {
			t.Fatalf("loaded %d questions, want %d", loaded.Len(), 5*perCategory)
		}
	}
	if loadNS*7 > genNS {
		t.Errorf("cold load %dns vs regeneration %dns: want >= 7x speedup", loadNS, genNS)
	}
	t.Logf("pack size %d bytes; load %.1fms vs regen %.1fms (%.1fx)",
		len(packed), float64(loadNS)/1e6, float64(genNS)/1e6, float64(genNS)/float64(loadNS))
}
