package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
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

// TestPackColdLoadFasterThanJSON pins the perf motivation of the codec:
// loading a packed fold must beat decoding the same questions from
// JSON by a wide margin. JSON decoding is the reference because it
// depends only on the question bytes and the standard library, never
// on how fast a generator is. Each trial times the two loads back to
// back, each after a GC and both on one P, so that host load and the
// other side's garbage slow both alike; the gate is the median of the
// per-trial ratios. The ratio reads 50-60x on a 2-vCPU host; the gate
// at 36x passes that with room for scheduler noise, while a pack
// decoder twice as slow (25-30x) fails it.
func TestPackColdLoadFasterThanJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	const perCategory = 400 // 2k questions
	const trials = 9
	b, err := BuildExtended("cold", perCategory)
	if err != nil {
		t.Fatalf("BuildExtended: %v", err)
	}
	packed := packBytes(t, b)
	var js bytes.Buffer
	if err := b.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ratios := make([]float64, trials)
	for i := range ratios {
		runtime.GC()
		start := time.Now()
		loaded, err := dataset.ReadPackBytes(packed)
		loadNS := time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatalf("ReadPackBytes: %v", err)
		}
		if loaded.Len() != b.Len() {
			t.Fatalf("loaded %d questions, want %d", loaded.Len(), b.Len())
		}
		runtime.GC()
		start = time.Now()
		if _, err := dataset.ReadJSON(bytes.NewReader(js.Bytes())); err != nil {
			t.Fatalf("ReadJSON: %v", err)
		}
		ratios[i] = float64(time.Since(start).Nanoseconds()) / float64(max(loadNS, 1))
	}
	slices.Sort(ratios)
	median := ratios[trials/2]
	if median < 36 {
		t.Errorf("cold load is %.1fx faster than JSON (median of %.1f); want >= 36x", median, ratios)
	}
	t.Logf("pack %d bytes, JSON %d bytes; per-trial JSON/pack load ratios %.1f", len(packed), js.Len(), ratios)
}
