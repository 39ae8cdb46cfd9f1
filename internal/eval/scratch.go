package eval

import "sync"

// Scratch holds the reusable normalisation buffers behind one worker's
// judge calls, so the per-event hot path (DESIGN.md §12) runs without
// allocating in the steady state.
//
// A Scratch belongs to exactly one goroutine at a time. The pipeline's
// worker loop checks one out per worker for the duration of a run
// (Pipeline.Run threads it to the Inference/Judge stages through the
// event); the standalone Judge.Correct path borrows one from a package
// pool per call. The byte slices it hands out (normA/normB) alias its
// internal buffers and are invalidated by the next call on the same
// buffer — callers must finish comparing before re-normalising into the
// same slot.
type Scratch struct {
	a, b []byte
}

// normA normalises s into the first scratch slot and returns the
// canonical bytes. Valid until the next normA call on this Scratch.
func (sc *Scratch) normA(s string) []byte {
	sc.a = appendNormalized(sc.a[:0], s)
	return sc.a
}

// normB normalises s into the second scratch slot — for the golden /
// candidate side of a comparison, so both operands can be live at once.
func (sc *Scratch) normB(s string) []byte {
	sc.b = appendNormalized(sc.b[:0], s)
	return sc.b
}

// scratchPool backs the standalone Judge.Correct path and seeds the
// pipeline's per-worker checkouts. Buffers start at 128 bytes — larger
// than any canonical answer in the shipped benchmark — and grow to the
// longest response they ever normalise.
var scratchPool = sync.Pool{New: func() any {
	return &Scratch{a: make([]byte, 0, 128), b: make([]byte, 0, 128)}
}}

// getScratch checks a Scratch out of the pool; the caller owns it until
// putScratch.
func getScratch() *Scratch {
	return scratchPool.Get().(*Scratch)
}

// putScratch returns a Scratch to the pool. The caller must hold no
// live normA/normB slices across this call.
func putScratch(sc *Scratch) {
	scratchPool.Put(sc)
}
