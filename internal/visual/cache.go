package visual

import (
	"bytes"
	"image/png"
	"sync"
)

// SceneCache memoizes the PNG encoding of a scene at a downsample
// factor: the bytes serve's image endpoint returns. A miss renders,
// downsamples and encodes from pooled pixel buffers and hands both
// buffers back before returning, so the cache retains only encoded
// bytes: a few kilobytes per (scene, factor), not RGBA frames. The
// simulated models' perception stage does not use it: its per-element
// legibility losses cost a few flops, less than a cache lookup.
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
// SetBudget caps retained bytes: entries are tracked in a single
// least-recently-used list and, whenever an insert pushes the total
// over the budget, evicted from the cold end until it fits. Eviction
// order is a pure function of the access sequence — one mutex orders
// all accesses, so a serial workload evicts identically on every run.
// A budget of 0 (the default, and the Default cache's setting)
// disables eviction.
//
// All methods are safe for concurrent use. Returned byte slices are
// shared with the cache and every other caller; treat them as read-only.
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

type cacheKey struct {
	scene  *Scene
	factor int
}

// cacheEntry encodes its PNG exactly once even when many goroutines
// miss on the same key concurrently, and carries the LRU bookkeeping.
// data and err are published by once.Do (safe to read after it
// returns); every other field is guarded by the cache mutex.
type cacheEntry struct {
	key  cacheKey
	once sync.Once
	data []byte
	err  error

	weight   int64
	computed bool // weight is known; entry participates in byte accounting
	tracked  bool // still in the map and LRU list

	prev, next *cacheEntry
}

// entryOverhead is the byte-accounting estimate of one entry's fixed
// cost. Weights approximate retained heap, not measure it exactly: the
// PNG payload plus this flat overhead for the entry, map slot and
// headers.
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

// Default is the process-wide cache behind serve's image endpoint;
// `chipvqa serve -cachebudget` caps it.
var Default = NewSceneCache()

// SetBudget caps the cache's retained bytes, evicting immediately if
// the current contents exceed it. A budget of 0 removes the cap.
func (c *SceneCache) SetBudget(n int64) {
	c.mu.Lock()
	c.budget = n
	c.evictLocked()
	c.mu.Unlock()
}

// EncodedPNG returns the scene rendered, downsampled by factor when it
// is above 1, and encoded as PNG, memoized per (scene, factor). Warm
// requests share one byte slice; callers must treat it as read-only.
// The encoding error, if any, is memoized with the entry.
func (c *SceneCache) EncodedPNG(s *Scene, factor int) ([]byte, error) {
	e := c.lookup(cacheKey{s, factor})
	e.once.Do(func() {
		e.data, e.err = encodePNG(s, factor)
		c.mu.Lock()
		e.weight = int64(len(e.data)) + entryOverhead
		e.computed = true
		if e.tracked { // Reset may have dropped the entry mid-compute
			c.bytes += e.weight
			c.evictLocked()
			c.peak = max(c.peak, c.bytes)
		}
		c.mu.Unlock()
	})
	return e.data, e.err
}

// encodePNG renders and downsamples the scene into pooled buffers,
// encodes the result and returns both buffers to the pool.
func encodePNG(s *Scene, factor int) ([]byte, error) {
	img := Render(s)
	if factor > 1 {
		small := Downsample(img, factor)
		ReleaseImage(img)
		img = small
	}
	var buf bytes.Buffer
	err := png.Encode(&buf, img)
	ReleaseImage(img)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// lookup finds or inserts the entry for k, counts the hit or miss and
// marks the entry most recently used. The caller computes the value
// outside the lock through the entry's Once.
func (c *SceneCache) lookup(k cacheKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
		c.lru.next, c.lru.prev = &c.lru, &c.lru
	}
	e, ok := c.entries[k]
	if ok {
		c.hits++
		c.listRemove(e)
	} else {
		e = &cacheEntry{key: k, tracked: true}
		c.entries[k] = e
		c.misses++
	}
	c.listPushFront(e)
	return e
}

// evictLocked drops cold entries until retained bytes fit the budget.
// Entries still computing are skipped: their weight is unknown and a
// waiter is about to read them.
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

// Reset drops every cached encoding and zeroes the counters (the
// budget is configuration, not a counter, and survives). Slices already
// handed out stay valid.
func (c *SceneCache) Reset() {
	c.mu.Lock()
	for _, e := range c.entries {
		c.listRemove(e)
		e.tracked = false
	}
	clear(c.entries)
	c.bytes, c.peak, c.evictedBytes = 0, 0, 0
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.mu.Unlock()
}
