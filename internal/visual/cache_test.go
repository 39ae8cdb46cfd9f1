package visual

import (
	"bytes"
	"image/png"
	"sync"
	"testing"
)

// directPNG encodes the scene at factor without any cache.
func directPNG(t *testing.T, s *Scene, factor int) []byte {
	t.Helper()
	img := Render(s)
	if factor > 1 {
		img = Downsample(img, factor)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pngWeight learns the byte weight the cache charges for one (scene,
// factor) entry from a throwaway cache.
func pngWeight(t *testing.T, s *Scene, factor int) int64 {
	t.Helper()
	c := NewSceneCache()
	if _, err := c.EncodedPNG(s, factor); err != nil {
		t.Fatal(err)
	}
	w := c.Stats().Bytes
	if w <= entryOverhead {
		t.Fatalf("PNG weight = %d", w)
	}
	return w
}

func TestSceneCacheRenderMemoized(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindSchematic)
	a, err := c.EncodedPNG(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.EncodedPNG(s, 1)
	if &a[0] != &b[0] {
		t.Error("second lookup did not return the cached bytes")
	}
	if !bytes.Equal(a, directPNG(t, s, 1)) {
		t.Error("cached encoding differs from encoding a direct render")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss + 1 hit", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate %v, want 0.5", got)
	}
}

func TestSceneCacheDownsampled(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindLayout)
	seen := map[*byte]bool{}
	for _, f := range []int{1, 8, 16} {
		got, err := c.EncodedPNG(s, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, directPNG(t, s, f)) {
			t.Errorf("%dx encoding differs from the direct pipeline", f)
		}
		seen[&got[0]] = true
	}
	// Distinct factors are distinct entries.
	if st := c.Stats(); st.Misses != 3 || len(seen) != 3 {
		t.Errorf("three factors gave %d slices, stats %+v", len(seen), st)
	}
}

// TestSceneCacheReset pins Stats() behaviour across Reset(): the hit,
// miss, eviction and byte counters all restart from zero, the budget
// (configuration, not a counter) survives, and previously cached
// encodings recompute.
func TestSceneCacheReset(t *testing.T) {
	s := sampleScene(KindCurve)
	budget := pngWeight(t, s, 1) + pngWeight(t, s, 8) + pngWeight(t, s, 16)
	c := NewSceneCache()
	c.SetBudget(budget) // room for exactly the three encodings of s
	first, _ := c.EncodedPNG(s, 1)
	_, _ = c.EncodedPNG(s, 8)
	_, _ = c.EncodedPNG(s, 16)
	_, _ = c.EncodedPNG(sampleScene(KindTable), 1) // forces an eviction
	before := c.Stats()
	if before.Evictions == 0 || before.EvictedBytes == 0 || before.Bytes == 0 || before.PeakBytes == 0 {
		t.Fatalf("expected byte pressure before reset, stats %+v", before)
	}
	c.Reset()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.EvictedBytes != 0 ||
		st.Bytes != 0 || st.PeakBytes != 0 {
		t.Errorf("stats after reset %+v", st)
	}
	if st.Budget != budget {
		t.Errorf("reset dropped the budget: %d, want %d", st.Budget, budget)
	}
	if again, _ := c.EncodedPNG(s, 1); &again[0] == &first[0] {
		t.Error("reset kept the cached encoding")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("post-reset lookup should miss, stats %+v", st)
	}
}

// TestSceneCacheBudgetEviction checks the LRU contract: under a budget
// with room for two of three entries the least-recently-used entry is
// the one evicted, retained and peak bytes never exceed the budget, and
// the same access sequence produces identical stats on every run.
func TestSceneCacheBudgetEviction(t *testing.T) {
	s1 := sampleScene(KindSchematic)
	s2 := sampleScene(KindDiagram)
	s3 := sampleScene(KindLayout)
	w1, w2, w3 := pngWeight(t, s1, 1), pngWeight(t, s2, 1), pngWeight(t, s3, 1)
	run := func() (CacheStats, bool) {
		c := NewSceneCache()
		c.SetBudget(max(w1+w2, w1+w3)) // never room for all three
		first, _ := c.EncodedPNG(s1, 1)
		_, _ = c.EncodedPNG(s2, 1)
		_, _ = c.EncodedPNG(s1, 1) // touch: s2 becomes the coldest entry
		_, _ = c.EncodedPNG(s3, 1) // over budget: must evict s2, keep s1
		again, _ := c.EncodedPNG(s1, 1)
		return c.Stats(), &again[0] == &first[0]
	}
	st, kept := run()
	if !kept {
		t.Error("recently-used entry was evicted instead of the LRU one")
	}
	if st.Evictions != 1 || st.EvictedBytes != w2 {
		t.Errorf("evictions %d (%d bytes), want 1 (%d bytes)", st.Evictions, st.EvictedBytes, w2)
	}
	if st.Bytes > st.Budget || st.PeakBytes > st.Budget {
		t.Errorf("bytes %d / peak %d exceed budget %d", st.Bytes, st.PeakBytes, st.Budget)
	}
	if again, _ := run(); again != st {
		t.Errorf("same access sequence, different stats: %+v vs %+v", again, st)
	}
}

// TestSceneCacheConcurrentEviction churns a two-entry budget from many
// goroutines; the mutex must keep the accounting consistent (run under
// -race), peak bytes must never exceed the budget, and every returned
// slice must hold the right bytes even after its entry is evicted.
func TestSceneCacheConcurrentEviction(t *testing.T) {
	scenes := []*Scene{
		sampleScene(KindSchematic), sampleScene(KindDiagram), sampleScene(KindLayout),
		sampleScene(KindCurve), sampleScene(KindTable), sampleScene(KindFlow),
	}
	want := make(map[*Scene][]byte)
	var budget int64
	for _, s := range scenes {
		want[s] = directPNG(t, s, 1)
		budget = max(budget, 2*pngWeight(t, s, 1))
	}
	c := NewSceneCache()
	c.SetBudget(budget)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, s := range scenes {
					data, err := c.EncodedPNG(s, 1)
					if err == nil && !bytes.Equal(data, want[s]) {
						err = errCorrupt
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.PeakBytes > st.Budget {
		t.Errorf("peak %d exceeds budget %d", st.PeakBytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Error("six scenes under a two-entry budget should evict")
	}
}

func TestSceneCacheConcurrent(t *testing.T) {
	c := NewSceneCache()
	scenes := []*Scene{
		sampleScene(KindSchematic),
		sampleScene(KindDiagram),
		sampleScene(KindLayout),
	}
	var wg sync.WaitGroup
	const goroutines = 16
	// Record slice identities so we can check every goroutine saw the
	// same cached encodings.
	ptrs := make([][]*byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range scenes {
				for _, f := range []int{8, 1} {
					data, err := c.EncodedPNG(s, f)
					if err != nil {
						t.Error(err)
						return
					}
					ptrs[g] = append(ptrs[g], &data[0])
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every goroutine must observe the same cached encodings.
	for g := 1; g < goroutines; g++ {
		for i := range ptrs[0] {
			if ptrs[g][i] != ptrs[0][i] {
				t.Fatalf("goroutine %d encoding %d differs", g, i)
			}
		}
	}
	// Each (scene, factor) encoded once: 3 scenes x (1x + 8x).
	if st := c.Stats(); st.Misses != 6 {
		t.Errorf("misses %d, want 6 (%+v)", st.Misses, st)
	}
}
