package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheGeometry(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 32 * 1024, BlockSize: 64, Ways: 4}
	if s := cfg.Sets(); s != 128 {
		t.Errorf("sets = %d, want 128", s)
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 0, BlockSize: 64, Ways: 1},
		{SizeBytes: 100, BlockSize: 64, Ways: 1},    // not divisible
		{SizeBytes: 3 * 64, BlockSize: 64, Ways: 1}, // non-power-of-two sets
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeBytes: 256, BlockSize: 16, Ways: 1})
	if c.Access(0x40) {
		t.Error("cold access hit")
	}
	if !c.Access(0x40) {
		t.Error("repeat access missed")
	}
	if !c.Access(0x4f) {
		t.Error("same-block access missed")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 256 B direct mapped, 16 B blocks -> 16 sets. 0x00 and 0x100 map to
	// set 0 and evict each other.
	c := mustCache(t, CacheConfig{SizeBytes: 256, BlockSize: 16, Ways: 1})
	trace := []uint64{0x00, 0x100, 0x00, 0x100}
	_, misses := c.Run(trace)
	if misses != 4 {
		t.Errorf("ping-pong conflict: %d misses, want 4", misses)
	}
}

func TestTwoWayRemovesConflict(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeBytes: 256, BlockSize: 16, Ways: 2})
	trace := []uint64{0x00, 0x100, 0x00, 0x100}
	_, misses := c.Run(trace)
	if misses != 2 {
		t.Errorf("2-way: %d misses, want 2 (cold only)", misses)
	}
}

func TestLRUvsFIFO(t *testing.T) {
	// Classic sequence where LRU and FIFO differ in a 2-way set:
	// A B A C A — LRU keeps A; FIFO evicts A on C's fill.
	mk := func(p ReplacementPolicy) int {
		c := mustCache(t, CacheConfig{SizeBytes: 32, BlockSize: 16, Ways: 2, Policy: p})
		// One set: block addresses 0x000 (A), 0x020 (B), 0x040 (C) all
		// map to set 0 (16B blocks, 1 set of 2 ways).
		_, misses := c.Run([]uint64{0x000, 0x020, 0x000, 0x040, 0x000})
		return misses
	}
	lru := mk(LRU)
	fifo := mk(FIFO)
	if lru != 3 {
		t.Errorf("LRU misses = %d, want 3 (A,B,C cold only)", lru)
	}
	if fifo != 4 {
		t.Errorf("FIFO misses = %d, want 4 (A evicted by C)", fifo)
	}
}

func TestQuickMissesBounded(t *testing.T) {
	// Property: misses never exceed accesses, and a trace touching at
	// most as many distinct blocks as the cache holds (fully
	// associative) only cold-misses.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := NewCache(CacheConfig{SizeBytes: 512, BlockSize: 64, Ways: 8}) // fully associative
		if err != nil {
			return false
		}
		blocks := []uint64{0, 64, 128, 192, 256, 320, 384, 448}[:1+r.Intn(8)]
		n := 20 + r.Intn(40)
		distinct := map[uint64]bool{}
		for i := 0; i < n; i++ {
			a := blocks[r.Intn(len(blocks))]
			distinct[a] = true
			c.Access(a)
		}
		return c.Misses == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStrideTrace(t *testing.T) {
	tr := StrideTrace(0x100, 64, 4)
	want := []uint64{0x100, 0x140, 0x180, 0x1c0}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace %v, want %v", tr, want)
		}
	}
}

func TestAMAT(t *testing.T) {
	if a := AMAT(1, 100, 0.05); a != 6 {
		t.Errorf("AMAT = %v, want 6", a)
	}
	if a := AMAT(2, 50, 0); a != 2 {
		t.Errorf("AMAT with no misses = %v, want hit time", a)
	}
}
