package phys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSTACriticalPath(t *testing.T) {
	g := NewTimingGraph()
	g.AddArc("in", "u1", 2).AddArc("u1", "u2", 3).AddArc("u2", "out", 2)
	g.AddArc("in", "u3", 1).AddArc("u3", "out", 3)
	d, err := g.CriticalDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Errorf("critical delay %v, want 7", d)
	}
	rep, err := g.Analyze(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNS != 3 {
		t.Errorf("WNS %v, want 3", rep.WNS)
	}
	// Critical path nodes.
	want := []string{"in", "u1", "u2", "out"}
	if len(rep.CriticalPath) != len(want) {
		t.Fatalf("critical path %v", rep.CriticalPath)
	}
	for i := range want {
		if rep.CriticalPath[i] != want[i] {
			t.Fatalf("critical path %v, want %v", rep.CriticalPath, want)
		}
	}
	// Slack on the critical path equals WNS; off-path slack is larger.
	for _, n := range want {
		if math.Abs(rep.Slack[n]-3) > 1e-9 {
			t.Errorf("slack[%s] = %v, want 3", n, rep.Slack[n])
		}
	}
	if rep.Slack["u3"] <= 3 {
		t.Errorf("off-path slack %v should exceed WNS", rep.Slack["u3"])
	}
}

func TestSTACycleDetection(t *testing.T) {
	g := NewTimingGraph()
	g.AddArc("a", "b", 1).AddArc("b", "a", 1)
	if _, err := g.Analyze(10); err == nil {
		t.Error("cycle not detected")
	}
}

func TestQuickSlackConsistency(t *testing.T) {
	// Property: on random DAGs, arrival <= required on every node when
	// the period is at least the critical delay, i.e. no negative slack.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewTimingGraph()
		const n = 8
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					g.AddArc(nodeName(i), nodeName(j), float64(1+r.Intn(5)))
				}
			}
		}
		if len(g.nodes) == 0 {
			return true
		}
		d, err := g.CriticalDelay()
		if err != nil {
			return false
		}
		rep, err := g.Analyze(d)
		if err != nil {
			return false
		}
		for _, s := range rep.Slack {
			if s < -1e-9 {
				return false
			}
		}
		return rep.WNS >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func nodeName(i int) string { return string(rune('a' + i)) }

func TestUsefulSkew(t *testing.T) {
	before, after, skew := UsefulSkew(8, 4)
	if before != 8 || after != 6 || skew != 2 {
		t.Errorf("useful skew: %v %v %v", before, after, skew)
	}
	// Balanced path gains nothing.
	b2, a2, s2 := UsefulSkew(5, 5)
	if b2 != 5 || a2 != 5 || s2 != 0 {
		t.Errorf("balanced skew: %v %v %v", b2, a2, s2)
	}
}

func TestHTree(t *testing.T) {
	h := HTree{Levels: 4, DieSize: 1000}
	// Level lengths: 500, 500, 250, 250 with 1,2,4,8 segments:
	// 500 + 1000 + 1000 + 2000 = 4500.
	if wl := h.WireLength(); math.Abs(wl-4500) > 1e-9 {
		t.Errorf("wirelength %v, want 4500", wl)
	}
}

func TestClockSkew(t *testing.T) {
	if s := ClockSkew([]float64{120, 135, 128, 142}); s != 22 {
		t.Errorf("skew %v", s)
	}
	if s := ClockSkew(nil); s != 0 {
		t.Errorf("empty skew %v", s)
	}
}

func TestElmoreDelay(t *testing.T) {
	// r1*(c1+c2) + r2*c2 = 0.1*30 + 0.1*10 = 4 ps.
	if d := ElmoreDelay([]float64{0.1, 0.1}, []float64{20, 10}); math.Abs(d-4) > 1e-12 {
		t.Errorf("elmore %v, want 4", d)
	}
}

func TestQuickElmoreMonotone(t *testing.T) {
	// Property: adding downstream capacitance never reduces delay.
	f := func(extraRaw uint8) bool {
		r := []float64{0.1, 0.2, 0.1}
		c := []float64{10, 5, 8}
		base := ElmoreDelay(r, c)
		c[2] += float64(extraRaw)
		return ElmoreDelay(r, c) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferedDelayOptimum(t *testing.T) {
	// With R*C/2 = 500 and tb = 20, the optimum is interior.
	k, d := OptimalBufferCount(1000, 1, 20, 8)
	if k == 0 || k == 8 {
		t.Errorf("optimum at boundary: k=%d", k)
	}
	if d >= BufferedDelay(1000, 1, 0, 20) {
		t.Error("buffered delay not better than unbuffered")
	}
	// Exhaustive check that k is the argmin.
	for kk := 0; kk <= 8; kk++ {
		if BufferedDelay(1000, 1, kk, 20) < d-1e-9 {
			t.Errorf("k=%d beats reported optimum k=%d", kk, k)
		}
	}
}

func TestMeshVsTreeSkew(t *testing.T) {
	if s := MeshVsTreeSkew(40, 4); s != 10 {
		t.Errorf("mesh skew %v", s)
	}
	if s := MeshVsTreeSkew(40, 0.5); s != 40 {
		t.Errorf("smoothing below 1 should clamp: %v", s)
	}
}

func TestFanoutOf4Delay(t *testing.T) {
	if d := FanoutOf4Delay(10, 4); math.Abs(d-10) > 1e-9 {
		t.Errorf("FO4 at fanout 4 = %v, want base", d)
	}
	if d := FanoutOf4Delay(10, 16); math.Abs(d-20) > 1e-9 {
		t.Errorf("FO4 at fanout 16 = %v, want 2x base", d)
	}
}
