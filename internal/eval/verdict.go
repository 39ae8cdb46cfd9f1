package eval

import "sync/atomic"

// The verdict memo (stream.go, DESIGN.md §7): a grid of several models
// asks the judge about the same (question, response) pairs again and
// again, and a verdict is a pure function of (question, response,
// Judge), all three fixed for one shard of one EvaluateShardsContext
// call. So a verdict computed once answers, bit for bit, for every
// later event of the shard with the same question and response.

// verdictWays is how many distinct responses a question's memo row
// holds; no Table II question draws more than 6. A response that
// finds the row full is judged without being kept, so the bound costs
// speed, never correctness.
const verdictWays = 8

// Memo entry states. An entry is written once per shard: a worker
// claims a free entry, judges, stores the response and then publishes
// the verdict in the state, so a reader that sees a published state
// also sees the response.
const (
	verdictFree    = iota // unclaimed this shard
	verdictWriting        // claimed; its verdict is being computed
	verdictWrong          // published: the response is wrong
	verdictRight          // published: the response is right
)

// verdictEntry is one remembered (response, verdict) pair of a row.
type verdictEntry struct {
	state    atomic.Uint32
	response string
}

// verdictRow holds the responses judged so far for one question of
// the shard. Entries are claimed in order, so the first free entry
// ends the responses the row holds.
type verdictRow [verdictWays]verdictEntry

// verdictMemo remembers the verdicts of one call's current shard: one
// row per question, found from an event's Seq as Seq mod the shard's
// question count, since the grid is model-major. The Pipeline holds it
// by pointer beside its JudgeStage and asks it instead of the stage.
type verdictMemo struct {
	judge Judge
	rows  []verdictRow
}

// take readies the memo for a shard of n questions. Like
// reorderRing.take, it allocates only when n outgrows the rows it
// has, and otherwise resets their states. Stale responses stay in the
// entries until a claim overwrites them; no reader looks at an entry
// that is not published in the current shard.
func (m *verdictMemo) take(n int) {
	if cap(m.rows) < n {
		m.rows = make([]verdictRow, n)
		return
	}
	m.rows = m.rows[:n]
	for i := range m.rows {
		for j := range m.rows[i] {
			m.rows[i][j].state.Store(verdictFree)
		}
	}
}

// judgeWith is the judge call behind the memo: the seam tests use to
// count how many verdicts a run computes.
var judgeWith = Judge.CorrectWith

// verdict returns ev's verdict: the published one when ev's question
// already met the same response in this shard, otherwise the judge's,
// which it publishes into the row's first free entry. An entry
// another worker is still writing is passed over rather than waited
// for; at worst that judges a response twice.
//
//hot:judge verdict memo lookup
func (m *verdictMemo) verdict(ev *Event) bool {
	row := &m.rows[ev.Seq%len(m.rows)]
	for i := range row {
		e := &row[i]
		s := e.state.Load()
		if s == verdictFree {
			if e.state.CompareAndSwap(verdictFree, verdictWriting) {
				ok := judgeWith(m.judge, ev.Question, ev.Response, ev.scratch)
				e.response = ev.Response
				s = verdictWrong
				if ok {
					s = verdictRight
				}
				e.state.Store(s)
				return ok
			}
			s = e.state.Load() // another worker claimed it first
		}
		if s >= verdictWrong && e.response == ev.Response {
			return s == verdictRight
		}
	}
	return judgeWith(m.judge, ev.Question, ev.Response, ev.scratch)
}
