package dataset

// Shard is one contiguous window of a benchmark fold delivered by a
// streaming builder. Questions carries at most the stream's shard size
// entries and is positioned at global index Start within the fold's
// canonical category-major order, so concatenating every shard in
// Index order reproduces the monolithic build exactly.
//
// Ownership: the slice is valid for the duration of the yield callback
// and must not be retained afterwards — the producer is free to reuse
// or drop it. Consumers that need questions beyond the callback must
// copy the slice (the *Question values themselves are immutable after
// generation and safe to keep).
type Shard struct {
	// Index is the zero-based shard number within the stream.
	Index int
	// Start is the global index of Questions[0] in the fold.
	Start int
	// Questions holds the shard's window of the fold.
	Questions []*Question
	// Total is the fold's question count, the same on every shard of
	// a stream, when the producer knows it up front; 0 means unknown.
	// StreamExtended knows it from its arguments, a pack stream does
	// not (its header carries no count). A consumer may size its
	// per-fold buffers from it once, at the first shard, instead of
	// growing them shard by shard.
	Total int
}

// End returns the global index one past the shard's last question.
func (s Shard) End() int { return s.Start + len(s.Questions) }
