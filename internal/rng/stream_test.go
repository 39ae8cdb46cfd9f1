package rng

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestStreamMatchesRand pins the inline Stream implementation against
// math/rand/v2 draw-for-draw: raw Uint64, the power-of-two mask path,
// the Lemire reduction (including bounds large enough to exercise the
// rejection loop), and Float64. If the standard library's PCG or
// bounded reduction ever changes, this fails before any golden hash
// does.
func TestStreamMatchesRand(t *testing.T) {
	bounds := []uint64{
		1, 2, 3, 7, 8, 13, 64, 142, 1000, 1 << 20,
		(1 << 62) + 12345, // huge non-power-of-two: high rejection rate
		(1 << 63) - 25,    // near the int boundary
	}
	for seedCase := 0; seedCase < 8; seedCase++ {
		parts := []string{"stream-test", fmt.Sprint(seedCase)}
		// Construct the stdlib generator directly (not via New) so this
		// test pins Stream against math/rand/v2 itself.
		s := Seed(parts...)
		ref := rand.New(rand.NewPCG(s, s^seedMix))
		st := NewStream(parts...)
		for i := 0; i < 256; i++ {
			if got, want := st.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %d, rand = %d", seedCase, i, got, want)
			}
		}
		for _, n := range bounds {
			ref := New(append(parts, fmt.Sprint(n))...)
			st := NewStream(append(parts, fmt.Sprint(n))...)
			for i := 0; i < 256; i++ {
				if got, want := st.Uint64N(n), ref.Uint64N(n); got != want {
					t.Fatalf("seed %d n=%d draw %d: Uint64N = %d, rand = %d", seedCase, n, i, got, want)
				}
			}
		}
		refF := New(append(parts, "float")...)
		stF := NewStream(append(parts, "float")...)
		for i := 0; i < 256; i++ {
			if got, want := stF.Float64(), refF.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, rand = %v", seedCase, i, got, want)
			}
		}
	}
}

// TestStreamIntNMatchesRand checks the int wrapper against rand.IntN on
// the exact bound the bootstrap uses (the question count) and a few
// others.
func TestStreamIntNMatchesRand(t *testing.T) {
	for _, n := range []int{1, 3, 142, 4096} {
		ref := New("intn", fmt.Sprint(n))
		st := NewStream("intn", fmt.Sprint(n))
		for i := 0; i < 512; i++ {
			if got, want := st.IntN(n), ref.IntN(n); got != want {
				t.Fatalf("n=%d draw %d: IntN = %d, rand = %d", n, i, got, want)
			}
		}
	}
}

// TestStreamIntNPanicsOnInvalid matches rand.Rand.IntN's contract.
func TestStreamIntNPanicsOnInvalid(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntN(%d) did not panic", n)
				}
			}()
			st := NewStream("panic")
			st.IntN(n)
		}()
	}
}

// TestHasherMatchesSeed pins the incremental Hasher against Seed over
// the equivalent flat part list, including the Int and Float extensions
// that replace fmt.Sprint-formatted key parts.
func TestHasherMatchesSeed(t *testing.T) {
	cases := []struct {
		hashed uint64
		parts  []string
	}{
		{uint64(NewHasher()), nil},
		{uint64(NewHasher("bootstrap")), []string{"bootstrap"}},
		{uint64(NewHasher("bootstrap", "gpt-4o")), []string{"bootstrap", "gpt-4o"}},
		{uint64(NewHasher("a").String("b").String("")), []string{"a", "b", ""}},
		{uint64(NewHasher("a").Int(12)), []string{"a", "12"}},
		{uint64(NewHasher("a").Int(-7)), []string{"a", "-7"}},
		{uint64(NewHasher("a").Int(0)), []string{"a", "0"}},
		{uint64(NewHasher("ci").Int(2000).Float(0.95).Int(3)), []string{"ci", "2000", "0.95", "3"}},
		{uint64(NewHasher("ci").Float(1)), []string{"ci", "1"}},
		{uint64(NewHasher("ci").Float(0.123456789012345)), []string{"ci", fmt.Sprint(0.123456789012345)}},
	}
	for _, c := range cases {
		if want := Seed(c.parts...); c.hashed != want {
			t.Errorf("Hasher over %q = %d, Seed = %d", c.parts, c.hashed, want)
		}
	}
}

// TestHasherStreamMatchesNew ties it together: a stream derived from a
// Hasher identity is draw-for-draw the stream New returns for the same
// parts — the property the bootstrap's chunk scheduling relies on.
func TestHasherStreamMatchesNew(t *testing.T) {
	st := NewHasher("bootstrap", "model-x").Int(2000).Float(0.95).Int(5).Stream()
	ref := New("bootstrap", "model-x", "2000", "0.95", "5")
	for i := 0; i < 128; i++ {
		if got, want := st.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

// TestHasherBernoulliMatchesBernoulli pins Hasher.Bernoulli against the
// package-level Bernoulli over the same parts, including the edge cases
// that return without a draw (p <= 0, p >= 1) and out-of-range p.
func TestHasherBernoulliMatchesBernoulli(t *testing.T) {
	ps := []float64{-1, 0, 1, 2, 1e-9, 0.05, 0.25, 0.5, 0.65, 0.9, 0.999999}
	trues := 0
	for i := 0; i < 200; i++ {
		id := fmt.Sprint("q", i)
		for _, p := range ps {
			got := NewHasher("model", id, "perc").String("elem").Int(16).Bernoulli(p)
			if want := Bernoulli(p, "model", id, "perc", "elem", "16"); got != want {
				t.Fatalf("p=%v id=%s: Hasher.Bernoulli = %v, Bernoulli = %v", p, id, got, want)
			}
			if got {
				trues++
			}
		}
	}
	if trues == 0 || trues == 200*len(ps) {
		t.Errorf("degenerate draws: %d true of %d", trues, 200*len(ps))
	}
}

// TestHasherZeroAlloc pins the whole per-chunk key derivation —
// extending a prefix hash with a chunk index and sealing a stream — at
// zero allocations, the point of replacing fmt.Sprint keys.
func TestHasherZeroAlloc(t *testing.T) {
	base := NewHasher("bootstrap", "model", "2000", "0.95")
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		st := base.Int(17).Stream()
		sink += st.Uint64N(142)
	})
	if allocs != 0 {
		t.Errorf("per-chunk stream derivation allocates %.1f times; want 0", allocs)
	}
	_ = sink
}
