package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 3, 0, 3, 6},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{10.5, 9.9, 10.1, 10.0, 10.2}, 10.1, 9.95, 10.1, 10.35},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", c.xs, err)
		}
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing: want NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		p       float64
		want    float64
		wantErr bool
	}{
		{100, 0.9, 90, false},    // exactly 10 beyond
		{99, 0.9, 0, true},       // 9 beyond
		{1000, 0.99, 990, false}, // exactly 10 beyond
		{999, 0.99, 0, true},
		{20, 0.5, 10, false},
		{19, 0.5, 0, true},
		{100, 1, 0, true},
		{100, 0, 0, true},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if (err != nil) != c.wantErr {
			t.Errorf("percentile(n=%d, p=%v) error = %v, wantErr %v", c.n, c.p, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}

	// tail falls back to the highest lower percentile the samples
	// support: seq(n) holds 1..n, so the nearest-rank p-th percentile is
	// ceil(n*p).
	tails := []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 0.99, 990}, // p99 supported
		{999, 0.99, 950},  // falls to p95
		{200, 0.99, 190},  // p95: exactly 10 beyond
		{199, 0.99, 180},  // falls to p90
		{99, 0.99, 50},    // falls to the median
		{100, 0.9, 90},    // a p90 request never rises to p95
		{19, 0.99, 19},    // nothing supported: the maximum
		{0, 0.99, 0},      // no samples
	}
	for _, c := range tails {
		if got := tail(seq(c.n), c.p); got != c.want {
			t.Errorf("tail(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	outs := make([]outcome, 0, 100)
	for i := 0; i < 100; i++ {
		outs = append(outs, outcome{ms: 1, ok: true})
	}
	// Ten refused requests that "answered" instantly must still push the
	// p90 past any limit: their latency never counts as fast.
	for i := 0; i < 10; i++ {
		outs[i] = outcome{ms: 0.01, ok: false}
	}
	if got := failures(outs); got != 10 {
		t.Fatalf("failures = %d, want 10", got)
	}
	lat := latencies(outs)
	p90, err := percentile(lat, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 != 1 {
		t.Errorf("p90 with 10%% failures = %v, want 1 (the failures sit above it)", p90)
	}
	p95, err := percentile(append(lat, lat...), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p95, 1) {
		t.Errorf("p95 with 10%% failures = %v, want +Inf", p95)
	}
	if (step{rate: 200, p95ms: p95}).sustained() {
		t.Error("a step whose p95 falls on a failed request must not be sustained")
	}
}

func TestMaxRateLadder(t *testing.T) {
	ok := func(rate float64) step { return step{rate: rate, p95ms: 10} }
	cases := []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all sustained", []step{ok(200), ok(400), ok(800)}, 800},
		{"knee between 400 and 800", []step{ok(200), ok(400), {rate: 800, p95ms: 51}}, 400},
		{"failure at 400", []step{ok(200), {rate: 400, p95ms: 5, failed: 1}, ok(800)}, 200},
		{"backlog at 200", []step{{rate: 200, p95ms: 5, backlogS: 1.5}, ok(400)}, 0},
		{"p95 exactly at the limit", []step{{rate: 200, p95ms: ladderP95ms}}, 200},
		{"no steps", nil, 0},
	}
	for _, c := range cases {
		if got := maxRate(c.steps); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSpreadLimits runs the spread check over result lines on disk:
// a timing metric's runs may lie at most a tenth apart within a set,
// setup_s included, other metrics at most their bound apart, and a
// set's median may move at most the bound from the first set's.
func TestSpreadLimits(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "heap_live_mib", "unit": "MiB", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(name string, setup, heap []float64) string {
		var b strings.Builder
		for i := range setup {
			fmt.Fprintf(&b, `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":%v,"unit":"s"},"heap_live_mib":{"value":%v,"unit":"MiB"}}}`+"\n", setup[i], heap[i])
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.02, 0.98, 1.01, 0.99}
	cases := []struct {
		name string
		sets [][2][]float64
		want int
	}{
		{"steady", [][2][]float64{{steady, steady}, {steady, steady}}, 0},
		{"setup_s 12% apart", [][2][]float64{{{1, 1.06, 0.94, 1, 1}, steady}}, 1},
		{"heap 8% apart", [][2][]float64{{steady, {1, 1.04, 0.96, 1, 1}}}, 0},
		{"heap 12% apart", [][2][]float64{{steady, {1, 1.06, 0.94, 1, 1}}}, 1},
		{"median moved past the bound", [][2][]float64{{steady, steady}, {steady, {1.2, 1.2, 1.2, 1.2, 1.2}}}, 1},
	}
	for _, c := range cases {
		args := []string{spec}
		for i, s := range c.sets {
			args = append(args, set(fmt.Sprintf("%s-%d.jsonl", c.name, i), s[0], s[1]))
		}
		var out, errs bytes.Buffer
		if got := runSpread(args, &out, &errs); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, out.String(), errs.String())
		}
	}
}
