package eval

import (
	"sync/atomic"

	"repro/internal/dataset"
)

// Test-only access for the external eval_test package, which can import
// the model zoo that the eval package itself cannot.
var (
	AppendNormalized    = appendNormalized
	AppendNormalizedRef = appendNormalizedRef
	CountJudged         = countJudged
	JudgeEvery          = judgeEvery
)

// countJudged runs f and returns how many verdicts the verdict memo
// computed meanwhile, its misses and its full rows together. It swaps
// the memo's judge seam, so no other run may be in flight.
func countJudged(f func()) int64 {
	var n atomic.Int64
	prev := judgeWith
	defer func() { judgeWith = prev }()
	judgeWith = func(j Judge, q *dataset.Question, response string, sc *Scratch) bool {
		n.Add(1)
		return prev(j, q, response, sc)
	}
	f()
	return n.Load()
}
