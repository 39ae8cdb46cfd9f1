package rng

import (
	"math/bits"
	"strconv"
)

// seedMix decorrelates the two PCG state words derived from one 64-bit
// seed (the golden-ratio constant). New and NewStream must agree on it:
// a Stream is the inline twin of the *rand.Rand New returns.
const seedMix = 0x9e3779b97f4a7c15

// Stream is an inline, allocation-free twin of the generator New
// returns: the same PCG-DXSM state transition and the same Lemire
// bounded reduction as math/rand/v2, reproduced here so hot loops
// (bootstrap resampling draws hundreds of thousands of values per call)
// pay neither the *rand.Rand allocation nor its per-draw interface
// dispatch. For identical seed parts, Stream produces bit-identical
// output to New — TestStreamMatchesRand pins that equivalence against
// the standard library, so a stdlib algorithm change cannot drift past
// the test suite.
//
// A Stream is a value: copy it to fork the sequence, take a pointer to
// advance it. The zero Stream is the stream of NewStream() with no
// parts (valid but fixed); derive real streams from NewStream or
// Hasher.Stream.
type Stream struct {
	hi, lo uint64
}

// NewStream returns the deterministic stream for the given identity,
// bit-compatible with New(parts...): the n-th Uint64 of both agree.
func NewStream(parts ...string) Stream {
	s := Seed(parts...)
	return Stream{hi: s, lo: s ^ seedMix}
}

// Uint64 advances the PCG-DXSM generator one step. The constants and
// permutation mirror math/rand/v2's PCG exactly.
func (p *Stream) Uint64() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// state = state * mul + inc (128-bit LCG step)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo = lo
	p.hi = hi
	// DXSM output permutation
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= (lo | 1)
	return hi
}

// Uint64N returns a uniform value in [0, n), consuming the stream
// exactly as math/rand/v2's 64-bit reduction does (power-of-two mask,
// otherwise Lemire multiply-shift with rejection), so a Stream and a
// Rand seeded alike stay in lockstep through bounded draws too.
func (p *Stream) Uint64N(n uint64) uint64 {
	if n&(n-1) == 0 { // power of two: mask
		return p.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(p.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), n)
		}
	}
	return hi
}

// IntN returns a uniform int in [0, n); it panics if n <= 0, matching
// rand.Rand.IntN.
func (p *Stream) IntN(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to IntN")
	}
	return int(p.Uint64N(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1), matching
// rand.Rand.Float64 draw-for-draw.
func (p *Stream) Float64() float64 {
	return float64(p.Uint64()<<11>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n), matching
// rand.Rand.Perm draw-for-draw: the identity shuffled by Fisher–Yates
// from the top index down, each swap partner drawn by Uint64N.
func (p *Stream) Perm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(p.Uint64N(uint64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// fnv-1a constants, matching hash/fnv's 64-bit variant.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hasher is an incremental form of Seed: a partially-applied stream
// identity. Hot loops that derive many streams sharing a key prefix —
// the bootstrap's (model, resamples, level, chunk) chunks — hash the
// shared parts once and extend per item without formatting key strings:
// Hasher.Int appends the decimal form of an integer directly into the
// hash, byte-identical to hashing strconv.Itoa's (and fmt.Sprint's)
// output, so NewHasher(a).Int(7).Stream() == NewStream(a, "7").
type Hasher uint64

// NewHasher starts a hash over the given parts, exactly as Seed does.
func NewHasher(parts ...string) Hasher {
	h := Hasher(fnvOffset64)
	for _, p := range parts {
		h = h.String(p)
	}
	return h
}

// String extends the identity with one string part.
func (h Hasher) String(s string) Hasher {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hasher(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the 0 separator byte: (h ^ 0) * prime
}

// Int extends the identity with the decimal rendering of v, without
// allocating the intermediate string.
func (h Hasher) Int(v int) Hasher {
	var buf [20]byte
	b := strconv.AppendInt(buf[:0], int64(v), 10)
	for _, c := range b {
		h = (h ^ Hasher(c)) * fnvPrime64
	}
	return h * fnvPrime64
}

// Float extends the identity with the shortest decimal rendering of v —
// the same bytes fmt.Sprint(v) produces for a float64.
func (h Hasher) Float(v float64) Hasher {
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
	for _, c := range b {
		h = (h ^ Hasher(c)) * fnvPrime64
	}
	return h * fnvPrime64
}

// Stream seals the identity into a generator, bit-compatible with
// NewStream/New over the equivalent part list.
func (h Hasher) Stream() Stream {
	s := uint64(h)
	return Stream{hi: s, lo: s ^ seedMix}
}

// Bernoulli is the allocation-free form of the package-level Bernoulli
// over the equivalent part list, edge cases included: p <= 0 is false
// and p >= 1 is true, both without a draw.
func (h Hasher) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	s := h.Stream()
	return s.Float64() < p
}
