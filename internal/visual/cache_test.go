package visual

import (
	"bytes"
	"sync"
	"testing"
)

func TestSceneCacheRenderMemoized(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindSchematic)
	a := c.Render(s)
	b := c.Render(s)
	if a != b {
		t.Error("second render did not return the cached image")
	}
	if !bytes.Equal(a.Pix, Render(s).Pix) {
		t.Error("cached render differs from a direct render")
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
	got := c.Downsampled(s, 8)
	want := Downsample(Render(s), 8)
	if got.Bounds() != want.Bounds() || !bytes.Equal(got.Pix, want.Pix) {
		t.Error("cached downsample differs from direct pipeline")
	}
	if c.Downsampled(s, 8) != got {
		t.Error("second downsample not cached")
	}
	// factor <= 1 is the full render entry, not a separate key.
	if c.Downsampled(s, 1) != c.Render(s) {
		t.Error("factor 1 should share the render entry")
	}
	// Distinct factors are distinct entries.
	if c.Downsampled(s, 16) == got {
		t.Error("16x shares the 8x entry")
	}
}

// TestSceneCacheReset pins Stats() behaviour across Reset(): the hit,
// miss, eviction and byte counters all restart from zero, the budget
// (configuration, not a counter) survives, and previously cached
// artifacts recompute.
func TestSceneCacheReset(t *testing.T) {
	w := renderWeight(t)
	c := NewSceneCache()
	budget := w + w/8 // one render plus its small downsampled variants
	c.SetBudget(budget)
	s := sampleScene(KindCurve)
	img := c.Render(s)
	_ = c.Downsampled(s, 8)
	_ = c.Downsampled(s, 16)
	_ = c.Render(sampleScene(KindTable)) // second render forces an eviction
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
	if c.Render(s) == img {
		t.Error("reset kept the cached render")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("post-reset render should miss, stats %+v", st)
	}
}

// renderWeight learns the byte weight the cache charges for one cached
// render from a throwaway cache. All sampleScenes share canvas
// dimensions, so every render entry weighs the same.
func renderWeight(t *testing.T) int64 {
	t.Helper()
	c := NewSceneCache()
	c.Render(sampleScene(KindSchematic))
	w := c.Stats().Bytes
	if w <= 0 {
		t.Fatalf("render weight = %d", w)
	}
	return w
}

// TestSceneCacheBudgetEviction checks the LRU contract: under a budget
// sized for two renders the least-recently-used entry is the one
// evicted, retained and peak bytes never exceed the budget, and the
// same access sequence produces identical stats on every run.
func TestSceneCacheBudgetEviction(t *testing.T) {
	w := renderWeight(t)
	run := func() (CacheStats, bool) {
		c := NewSceneCache()
		c.SetBudget(2*w + w/2) // room for exactly two renders
		s1 := sampleScene(KindSchematic)
		s2 := sampleScene(KindDiagram)
		s3 := sampleScene(KindLayout)
		img1 := c.Render(s1)
		_ = c.Render(s2)
		_ = c.Render(s1) // touch: s2 becomes the coldest entry
		_ = c.Render(s3) // over budget: must evict s2, keep s1
		kept := c.Render(s1) == img1
		return c.Stats(), kept
	}
	st, kept := run()
	if !kept {
		t.Error("recently-used render was evicted instead of the LRU one")
	}
	if st.Evictions != 1 || st.EvictedBytes != w {
		t.Errorf("evictions %d (%d bytes), want 1 (%d bytes)", st.Evictions, st.EvictedBytes, w)
	}
	if st.Bytes > st.Budget || st.PeakBytes > st.Budget {
		t.Errorf("bytes %d / peak %d exceed budget %d", st.Bytes, st.PeakBytes, st.Budget)
	}
	if again, _ := run(); again != st {
		t.Errorf("same access sequence, different stats: %+v vs %+v", again, st)
	}
}

// TestSceneCacheAcquireRelease covers the three ownership outcomes of
// eviction: a pinned buffer survives until its (idempotent) release and
// is then pooled; an entry that was ever handed out share-style is
// never pooled; and eviction while pinned defers pooling to the last
// release.
func TestSceneCacheAcquireRelease(t *testing.T) {
	// Budget below any entry weight: every insert evicts itself.
	c := NewSceneCache()
	c.SetBudget(1)
	img, release := c.AcquireRender(sampleScene(KindSchematic))
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 0 {
		t.Fatalf("self-eviction expected at insert, stats %+v", st)
	}
	if img.Pix == nil {
		t.Fatal("pinned buffer recycled while its handle is outstanding")
	}
	release()
	if img.Pix != nil {
		t.Error("last release of an evicted acquired entry must pool the buffer")
	}
	release() // idempotent: must not double-free

	// Share-style handout poisons pooling even for an acquired entry.
	c2 := NewSceneCache()
	s2 := sampleScene(KindDiagram)
	img2, release2 := c2.AcquireRender(s2)
	if c2.Render(s2) != img2 {
		t.Fatal("acquired and shared lookups disagree on the cached image")
	}
	c2.SetBudget(1) // evict everything
	release2()
	if img2.Pix == nil {
		t.Error("shared image pooled; share-style readers may still hold it")
	}

	// Eviction of a pinned-only entry defers pooling to release time.
	c3 := NewSceneCache()
	img3, release3 := c3.AcquireRender(sampleScene(KindLayout))
	c3.SetBudget(1)
	if st := c3.Stats(); st.Bytes != 0 || st.Evictions != 1 {
		t.Errorf("pinned entry should leave the accounting at eviction, stats %+v", st)
	}
	if img3.Pix == nil {
		t.Fatal("pinned buffer recycled at eviction instead of at release")
	}
	release3()
	if img3.Pix != nil {
		t.Error("deferred pool return did not happen at the last release")
	}
}

func TestSceneCacheAcquireDownsampled(t *testing.T) {
	c := NewSceneCache()
	s := sampleScene(KindSchematic)
	img, release := c.AcquireDownsampled(s, 8)
	defer release()
	if c.Downsampled(s, 8) != img {
		t.Error("acquired and cached downsample disagree")
	}
	full, release1 := c.AcquireDownsampled(s, 1)
	defer release1()
	if full != c.Render(s) {
		t.Error("factor <= 1 should pin the full-resolution render entry")
	}
}

// TestSceneCacheConcurrentEviction churns a two-render budget from many
// goroutines mixing shared and pinned lookups; the mutex must keep the
// accounting consistent (run under -race) and peak bytes must never
// exceed the budget.
func TestSceneCacheConcurrentEviction(t *testing.T) {
	w := renderWeight(t)
	c := NewSceneCache()
	c.SetBudget(2 * w)
	scenes := []*Scene{
		sampleScene(KindSchematic), sampleScene(KindDiagram), sampleScene(KindLayout),
		sampleScene(KindCurve), sampleScene(KindTable), sampleScene(KindFlow),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, s := range scenes {
					if (g+i)%2 == 0 {
						img := c.Render(s) // shared: valid even after eviction
						_ = img.Pix[0]
					} else {
						img, release := c.AcquireRender(s)
						_ = img.Pix[0]
						release()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.PeakBytes > st.Budget {
		t.Errorf("peak %d exceeds budget %d", st.PeakBytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Error("six scenes under a two-render budget should evict")
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
	// Record image pointer identities so we can check every goroutine
	// saw the same cached artifacts.
	ptrs := make([][]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range scenes {
				ptrs[g] = append(ptrs[g], c.Downsampled(s, 8), c.Render(s))
			}
		}(g)
	}
	wg.Wait()
	// Every goroutine must observe the same cached artifacts.
	for g := 1; g < goroutines; g++ {
		for i := range ptrs[0] {
			if ptrs[g][i] != ptrs[0][i] {
				t.Fatalf("goroutine %d artifact %d differs", g, i)
			}
		}
	}
	// Each (scene, factor) computed once: 3 scenes x (render + 8x).
	if st := c.Stats(); st.Misses != 6 {
		t.Errorf("misses %d, want 6 (%+v)", st.Misses, st)
	}
}

func TestCloneIsPrivate(t *testing.T) {
	s := sampleScene(KindSchematic)
	orig := CachedRender(s)
	cp := Clone(orig)
	if !bytes.Equal(orig.Pix, cp.Pix) {
		t.Fatal("clone differs from original")
	}
	before := orig.Pix[0]
	cp.Pix[0] = before ^ 0xff
	if orig.Pix[0] != before {
		t.Error("mutating the clone changed the cached image")
	}
}
