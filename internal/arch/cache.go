package arch

import "fmt"

// ReplacementPolicy selects the victim way on a miss.
type ReplacementPolicy int

// Replacement policies.
const (
	LRU ReplacementPolicy = iota
	FIFO
)

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	SizeBytes int
	BlockSize int
	Ways      int
	Policy    ReplacementPolicy
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.BlockSize * c.Ways) }

func log2i(v int) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Cache simulates hits and misses of a set-associative cache.
type Cache struct {
	cfg  CacheConfig
	sets [][]cacheLine
	tick uint64

	Hits   int
	Misses int
}

type cacheLine struct {
	valid bool
	tag   uint64
	used  uint64 // last-use tick (LRU) or fill tick (FIFO)
}

// NewCache builds a cache; the configuration must be power-of-two sized.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.BlockSize <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("arch: invalid cache config %+v", cfg)
	}
	sets := cfg.Sets()
	if sets <= 0 || sets*cfg.BlockSize*cfg.Ways != cfg.SizeBytes {
		return nil, fmt.Errorf("arch: cache size %d not divisible into %d-way sets of %d-byte blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockSize)
	}
	if sets&(sets-1) != 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("arch: cache geometry must be power of two")
	}
	c := &Cache{cfg: cfg, sets: make([][]cacheLine, sets)}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, cfg.Ways)
	}
	return c, nil
}

// Access touches one byte address, returns true on hit, and updates
// replacement state.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	block := addr / uint64(c.cfg.BlockSize)
	setIdx := block % uint64(len(c.sets))
	tag := block / uint64(len(c.sets))
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Hits++
			if c.cfg.Policy == LRU {
				set[i].used = c.tick
			}
			return true
		}
	}
	c.Misses++
	// Victim: invalid line first, else smallest used.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = cacheLine{valid: true, tag: tag, used: c.tick}
	return false
}

// Run replays an address trace and returns (hits, misses).
func (c *Cache) Run(trace []uint64) (hits, misses int) {
	h0, m0 := c.Hits, c.Misses
	for _, a := range trace {
		c.Access(a)
	}
	return c.Hits - h0, c.Misses - m0
}

// AMAT computes average memory access time from hit time, miss penalty
// and miss rate — the standard formula.
func AMAT(hitTime, missPenalty, missRate float64) float64 {
	return hitTime + missRate*missPenalty
}

// StrideTrace generates n accesses starting at base with the given byte
// stride: an array walk.
//
//lint:ignore unreachable called only by TestStrideTrace
func StrideTrace(base uint64, stride int, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i*stride)
	}
	return out
}
