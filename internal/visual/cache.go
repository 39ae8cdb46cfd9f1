package visual

import (
	"bytes"
	"image"
	"image/png"
	"sync"
)

// SceneCache memoizes the expensive per-scene visual artifacts: the
// rendered image, its downsampled variants, and their PNG encodings.
// Rendering a figure costs milliseconds and about 1.2MB of pixels, so
// the image endpoint and the render CLI compute each artifact once per
// (scene, factor) and serve repeats from the cache. The simulated
// models' perception stage does not use it: its per-element legibility
// losses cost a few flops, less than a cache lookup.
//
// Keying is by scene pointer identity plus factor. Scenes are built once
// per benchmark and shared by reference everywhere (the challenge
// collection shallow-copies questions, keeping the same *Scene), so
// pointer identity is exactly scene identity. Scenes must not be mutated
// after first use with a cache — everything in this repository treats
// them as immutable once built.
//
// # Memory budget
//
// At 100k-question scale an unbounded cache would retain one 1.2MB
// render per scene. SetBudget caps retained bytes: entries are tracked
// in a single least-recently-used list and, whenever an insert pushes
// the total over the budget, evicted from the cold end until it fits.
// Eviction order is a pure function of the access sequence — one mutex
// orders all accesses, so a serial workload evicts identically on every
// run. A budget of 0 (the default, and the Default cache's setting)
// disables eviction.
//
// # Ownership of evicted pixels
//
// Images handed out by Render/Downsampled are shared: any number of
// callers may still hold one when its entry is evicted, so its pixel
// buffer can never be returned to the pool — the entry is simply
// dropped and the image becomes ordinary garbage. Callers that want
// eviction to recycle pixels use AcquireRender/AcquireDownsampled,
// which pin the entry and return a release func; once an evicted
// entry's last release is called — and the image was never also handed
// out share-style — its buffer goes back to the per-size pixel pool
// (see pool.go for the ownership contract).
//
// All methods are safe for concurrent use. Returned images and slices
// are shared; callers must treat them as read-only (use Clone for a
// private mutable copy).
type SceneCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     cacheEntry // ring sentinel: lru.next is hottest, lru.prev coldest

	budget       int64 // retained-byte cap; 0 = unlimited
	bytes        int64 // currently retained
	peak         int64 // high-water mark of bytes, sampled after eviction
	evictedBytes int64
	hits         uint64
	misses       uint64
	evictions    uint64
}

// artifactKind distinguishes the two artifact tables that share the
// cache's single LRU list.
type artifactKind uint8

const (
	artRender artifactKind = iota // *image.RGBA
	artPNG                        // pngResult
)

type cacheKey struct {
	scene  *Scene
	factor int
	kind   artifactKind
}

// cacheEntry computes its value exactly once even when many goroutines
// miss on the same key concurrently, and carries the LRU bookkeeping.
// val is published by once.Do (safe to read after it returns); every
// other field is guarded by the cache mutex.
type cacheEntry struct {
	key  cacheKey
	once sync.Once
	val  any

	weight   int64
	computed bool // weight is known; entry participates in byte accounting
	tracked  bool // still in the map and LRU list
	evicted  bool // evicted while pinned; pool pixels at the last release
	shared   bool // handed out without a release handle; never pool pixels
	refs     int  // outstanding Acquire handles

	prev, next *cacheEntry
}

// entryOverhead is the byte-accounting estimate of one entry's fixed
// cost. Weights approximate retained heap, not measure it exactly: the
// pixel buffer or PNG payload plus this flat overhead for the entry,
// map slot and headers.
const entryOverhead = 128

// CacheStats reports cache effectiveness and byte pressure.
type CacheStats struct {
	Hits   uint64
	Misses uint64

	Evictions    uint64 // entries dropped under byte pressure
	EvictedBytes int64  // cumulative weight of dropped entries
	Bytes        int64  // weight currently retained
	PeakBytes    int64  // high-water mark of Bytes (sampled after eviction)
	Budget       int64  // configured cap; 0 = unlimited
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewSceneCache returns an empty cache with no byte budget.
func NewSceneCache() *SceneCache { return &SceneCache{} }

// Default is the process-wide cache the evaluation engine uses.
var Default = NewSceneCache()

// SetBudget caps the cache's retained bytes, evicting immediately if
// the current contents exceed it. A budget of 0 removes the cap.
func (c *SceneCache) SetBudget(n int64) {
	c.mu.Lock()
	c.budget = n
	c.evictLocked()
	c.mu.Unlock()
}

// Render returns the scene rasterised at full resolution, rendering at
// most once per scene.
func (c *SceneCache) Render(s *Scene) *image.RGBA {
	return c.image(s, 1, func() *image.RGBA { return Render(s) })
}

// Downsampled returns the scene rendered then box-filtered by factor,
// computing each (scene, factor) at most once. factor <= 1 returns the
// full-resolution render.
func (c *SceneCache) Downsampled(s *Scene, factor int) *image.RGBA {
	if factor <= 1 {
		return c.Render(s)
	}
	return c.image(s, factor, func() *image.RGBA {
		return Downsample(c.Render(s), factor)
	})
}

func (c *SceneCache) image(s *Scene, factor int, compute func() *image.RGBA) *image.RGBA {
	e := c.get(cacheKey{s, factor, artRender}, false, func() (any, int64) {
		img := compute()
		return img, int64(len(img.Pix)) + entryOverhead
	})
	return e.val.(*image.RGBA)
}

// AcquireRender is Render with pinned ownership: the entry cannot have
// its pixels recycled while the handle is outstanding, and if the entry
// is evicted under byte pressure the buffer returns to the pixel pool
// at the final release (unless the same image was also handed out via
// Render/Downsampled, which makes it permanently shared). The image is
// valid only until release; release is idempotent.
func (c *SceneCache) AcquireRender(s *Scene) (*image.RGBA, func()) {
	return c.acquireImage(s, 1, func() *image.RGBA { return Render(s) })
}

// AcquireDownsampled is Downsampled with pinned ownership; see
// AcquireRender. factor <= 1 pins the full-resolution render entry.
func (c *SceneCache) AcquireDownsampled(s *Scene, factor int) (*image.RGBA, func()) {
	if factor <= 1 {
		return c.AcquireRender(s)
	}
	return c.acquireImage(s, factor, func() *image.RGBA {
		return Downsample(c.Render(s), factor)
	})
}

func (c *SceneCache) acquireImage(s *Scene, factor int, compute func() *image.RGBA) (*image.RGBA, func()) {
	e := c.get(cacheKey{s, factor, artRender}, true, func() (any, int64) {
		img := compute()
		return img, int64(len(img.Pix)) + entryOverhead
	})
	var once sync.Once
	release := func() { once.Do(func() { c.releaseRef(e) }) }
	return e.val.(*image.RGBA), release
}

// pngResult is the cached value of an artPNG entry: the encoded bytes
// or the (deterministic) encoding error.
type pngResult struct {
	data []byte
	err  error
}

// EncodedPNG returns the scene rendered at the given downsample factor
// and encoded as PNG, memoized per (scene, factor). The HTTP image
// endpoint of internal/serve hits this once per (scene, factor) and
// then serves warm requests from one shared byte slice; callers must
// treat the slice as read-only. The encoder reads pixels through a
// pinned AcquireDownsampled handle, so under a byte budget the source
// render stays recyclable: once the PNG bytes exist the raw pixels can
// be evicted and pooled while the (much smaller) encoding stays hot.
func (c *SceneCache) EncodedPNG(s *Scene, factor int) ([]byte, error) {
	e := c.get(cacheKey{s, factor, artPNG}, false, func() (any, int64) {
		img, release := c.AcquireDownsampled(s, factor)
		var buf bytes.Buffer
		err := png.Encode(&buf, img)
		release()
		if err != nil {
			return pngResult{err: err}, entryOverhead
		}
		return pngResult{data: buf.Bytes()}, int64(buf.Len()) + entryOverhead
	})
	pr := e.val.(pngResult)
	return pr.data, pr.err
}

// get is the single lookup path. It finds or inserts the entry for k,
// counts the hit or miss, marks how the value is being handed out
// (pinned vs shared — recorded before the mutex drops, so a concurrent
// eviction can never recycle pixels a caller is about to receive),
// computes the value outside the lock via the entry's Once, then folds
// the weight into the byte accounting and evicts down to budget.
func (c *SceneCache) get(k cacheKey, pin bool, compute func() (any, int64)) *cacheEntry {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
		c.lru.next, c.lru.prev = &c.lru, &c.lru
	}
	e, ok := c.entries[k]
	if ok {
		c.hits++
		c.listRemove(e)
		c.listPushFront(e)
	} else {
		e = &cacheEntry{key: k, tracked: true}
		c.entries[k] = e
		c.listPushFront(e)
		c.misses++
	}
	if pin {
		e.refs++
	} else {
		e.shared = true
	}
	c.mu.Unlock()

	e.once.Do(func() {
		v, w := compute()
		e.val = v
		c.mu.Lock()
		e.weight = w
		e.computed = true
		if e.tracked { // Reset may have dropped the entry mid-compute
			c.bytes += w
			c.evictLocked()
			c.peak = max(c.peak, c.bytes)
		}
		c.mu.Unlock()
	})
	return e
}

// releaseRef drops one Acquire handle. The last release of an entry
// that was evicted while pinned returns its pixels to the pool.
func (c *SceneCache) releaseRef(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && e.evicted {
		c.recycleLocked(e)
	}
	c.mu.Unlock()
}

// evictLocked drops cold entries until retained bytes fit the budget.
// Entries still computing are skipped (their weight is unknown and a
// waiter is about to read them); pinned entries are evicted from the
// accounting immediately but keep their pixels until the last release.
func (c *SceneCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		e := c.lru.prev
		for e != &c.lru && !e.computed {
			e = e.prev
		}
		if e == &c.lru {
			return
		}
		delete(c.entries, e.key)
		c.listRemove(e)
		e.tracked = false
		c.bytes -= e.weight
		c.evictions++
		c.evictedBytes += e.weight
		if e.refs > 0 {
			e.evicted = true
		} else {
			c.recycleLocked(e)
		}
	}
}

// recycleLocked returns an evicted entry's pixel buffer to the pool —
// only legal when no handle is outstanding and the image was never
// handed out share-style (shared readers may hold it indefinitely).
func (c *SceneCache) recycleLocked(e *cacheEntry) {
	if e.shared {
		return
	}
	if img, ok := e.val.(*image.RGBA); ok {
		ReleaseImage(img)
	}
}

func (c *SceneCache) listPushFront(e *cacheEntry) {
	e.prev = &c.lru
	e.next = c.lru.next
	e.prev.next = e
	e.next.prev = e
}

func (c *SceneCache) listRemove(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Stats returns the cumulative counters and current byte pressure.
func (c *SceneCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		EvictedBytes: c.evictedBytes,
		Bytes:        c.bytes,
		PeakBytes:    c.peak,
		Budget:       c.budget,
	}
}

// Reset drops every cached artifact and zeroes the counters (the
// budget is configuration, not a counter, and survives). Pixel buffers
// follow the eviction ownership rules: pinned entries recycle at their
// last release, shared images are left to the garbage collector.
func (c *SceneCache) Reset() {
	c.mu.Lock()
	for _, e := range c.entries {
		c.listRemove(e)
		e.tracked = false
		if e.refs > 0 {
			e.evicted = true
		} else if e.computed {
			c.recycleLocked(e)
		}
	}
	clear(c.entries)
	c.bytes, c.peak, c.evictedBytes = 0, 0, 0
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.mu.Unlock()
}

// Clone returns a private mutable copy of a (possibly cached) image.
// The copy's buffer comes from the pixel pool and is copied row-by-row,
// so cloning a sub-image view (Stride != 4*Dx) is also safe. The caller
// owns the result and may hand it back with ReleaseImage.
func Clone(img *image.RGBA) *image.RGBA {
	b := img.Bounds()
	out := newRGBA(b)
	w4 := 4 * b.Dx()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		si := img.PixOffset(b.Min.X, y)
		di := out.PixOffset(b.Min.X, y)
		copy(out.Pix[di:di+w4], img.Pix[si:si+w4])
	}
	return out
}

// Package-level conveniences over the Default cache.

// CachedRender renders via the Default cache.
func CachedRender(s *Scene) *image.RGBA { return Default.Render(s) }

// CachedDownsample renders and downsamples via the Default cache.
func CachedDownsample(s *Scene, factor int) *image.RGBA { return Default.Downsampled(s, factor) }

// CachedPNG returns the scene's encoded PNG via the Default cache.
func CachedPNG(s *Scene, factor int) ([]byte, error) { return Default.EncodedPNG(s, factor) }
