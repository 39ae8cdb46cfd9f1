package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hist is a log2 histogram of durations in nanoseconds, safe for
// concurrent add: bucket k holds durations in [2^(k-1), 2^k).
type hist struct {
	n, sum atomic.Int64
	b      [65]atomic.Int64
}

func (h *hist) add(d time.Duration) {
	ns := max(int64(d), 0)
	h.n.Add(1)
	h.sum.Add(ns)
	h.b[bits.Len64(uint64(ns))].Add(1)
}

func (h *hist) count() int64 { return h.n.Load() }

// meanNs is the mean duration, 0 when empty.
func (h *hist) meanNs() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantileNs estimates the p-th quantile by interpolating linearly
// inside the bucket that holds it; 0 when empty.
func (h *hist) quantileNs(p float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := p * float64(n)
	seen := 0.0
	for k := range h.b {
		c := float64(h.b[k].Load())
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		if k == 0 {
			return 0
		}
		lo := math.Ldexp(1, k-1)
		return lo + lo*(rank-seen)/c
	}
	return float64(h.sum.Load()) / float64(n)
}

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer started; Parent 0 marks a root, and
// spans of one request or iteration share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// sampleEvery keeps one pipeline event in this many as spans; every
// event still feeds the histograms.
const sampleEvery = 64

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths can share the call sites.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish fills in each span's self time, its duration minus the part
// of it that its children cover, and returns the spans by start time
// with the total self time per span name.
func (t *tracer) finish() ([]span, map[string]int64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		self[s.Name] += s.Self
	}
	return spans, self
}

// covered is the length of [lo, hi) covered by the union of the
// children's intervals; kids arrive sorted by start.
func covered(lo, hi int64, kids []span) int64 {
	var total int64
	cur := lo
	for _, k := range kids {
		a, b := max(k.Start, cur), min(k.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans and per-name self times as one JSON document.
func (t *tracer) write(path string) error {
	spans, self := t.finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		SelfNs map[string]int64 `json:"self_ns_by_name"`
		Spans  []span           `json:"spans"`
	}{self, spans}); err != nil {
		//lint:ignore errdrop the encode error is the one worth reporting
		_ = f.Close()
		return err
	}
	return f.Close()
}
