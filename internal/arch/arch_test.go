package arch

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// --- Predictors -------------------------------------------------------

func TestTwoBitBetterOnLoops(t *testing.T) {
	// A last-outcome (1-bit) predictor mispredicts every loop exit and
	// the next entry, plus its cold first branch: 1 + 3 + 2 = 6 here.
	outcomes := LoopOutcomes(4, 3)
	const one = 6
	two := RunPredictor(NewTwoBit(4), 0x10, outcomes)
	if two >= one {
		t.Errorf("2-bit (%d) should beat 1-bit (%d) on loop patterns", two, one)
	}
	// Steady state: exactly one misprediction per loop exit.
	long := LoopOutcomes(8, 10)
	m := RunPredictor(NewTwoBit(4), 0x10, long)
	if m > 10+2 {
		t.Errorf("2-bit on 8-iteration loop x10: %d mispredictions", m)
	}
}

// --- Coherence ---------------------------------------------------------

func TestMESITransitions(t *testing.T) {
	cases := []struct {
		s      MESIState
		e      CoherenceEvent
		shared bool
		want   MESIState
		wb     bool
	}{
		{Invalid, ProcRead, false, Exclusive, false},
		{Invalid, ProcRead, true, Shared, false},
		{Invalid, ProcWrite, false, Modified, false},
		{Shared, ProcWrite, false, Modified, false},
		{Shared, BusReadX, false, Invalid, false},
		{Shared, BusUpgrade, false, Invalid, false},
		{Exclusive, ProcWrite, false, Modified, false},
		{Exclusive, BusRead, false, Shared, false},
		{Exclusive, BusReadX, false, Invalid, false},
		{Modified, BusRead, false, Shared, true},
		{Modified, BusReadX, false, Invalid, true},
		{Modified, ProcWrite, false, Modified, false},
	}
	for _, c := range cases {
		got, wb := MESINext(c.s, c.e, c.shared)
		if got != c.want || wb != c.wb {
			t.Errorf("%s on %s (shared=%v) = %s wb=%v, want %s wb=%v",
				c.s, c.e, c.shared, got, wb, c.want, c.wb)
		}
	}
}

func TestRunMESITrace(t *testing.T) {
	// c0 read (E), c1 read (both S), c1 write (c1 M, c0 I), c0 read
	// (c1 flushes -> S, c0 S).
	trace := []CoherenceTraceStep{
		{Core: 0}, {Core: 1}, {Core: 1, Write: true}, {Core: 0},
	}
	states, writebacks, err := RunMESI(2, trace)
	if err != nil {
		t.Fatal(err)
	}
	if states[0] != Shared || states[1] != Shared {
		t.Errorf("final states %v %v, want S S", states[0], states[1])
	}
	if writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", writebacks)
	}
}

func TestRunMESIErrors(t *testing.T) {
	if _, _, err := RunMESI(2, []CoherenceTraceStep{{Core: 5}}); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestQuickMESISingleWriter(t *testing.T) {
	// Property: after any trace, at most one cache is in M or E, and if
	// one is M/E all others are I.
	f := func(raw []byte) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		const cores = 3
		trace := make([]CoherenceTraceStep, len(raw))
		for i, b := range raw {
			trace[i] = CoherenceTraceStep{Core: int(b) % cores, Write: b&0x80 != 0}
		}
		states, _, err := RunMESI(cores, trace)
		if err != nil {
			return false
		}
		owners := 0
		nonInvalid := 0
		for _, s := range states {
			if s == Modified || s == Exclusive {
				owners++
			}
			if s != Invalid {
				nonInvalid++
			}
		}
		if owners > 1 {
			return false
		}
		if owners == 1 && nonInvalid != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Virtual memory ------------------------------------------------------

func TestVMTranslate(t *testing.T) {
	cfg := VMConfig{PageSize: 4096, VirtualBits: 16, PhysicalBits: 15}
	if cfg.OffsetBits() != 12 {
		t.Fatalf("offset bits = %d, want 12", cfg.OffsetBits())
	}
	pt := map[uint64]uint64{0x1: 0x7}
	pa, err := cfg.Translate(0x1abc, pt)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x7abc {
		t.Errorf("PA = %#x, want 0x7abc", pa)
	}
	if _, err := cfg.Translate(0x2abc, pt); err == nil {
		t.Error("page fault not reported")
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := NewTLB(2)
	pt := map[uint64]uint64{0: 10, 1: 11, 2: 12}
	seq := []struct {
		vpn uint64
		hit bool
	}{
		{0, false}, {1, false}, {0, true}, {2, false}, // evicts 1 (LRU)
		{0, true}, {1, false},
	}
	for i, s := range seq {
		pfn, hit, err := tlb.Lookup(s.vpn, pt)
		if err != nil {
			t.Fatal(err)
		}
		if hit != s.hit {
			t.Errorf("step %d vpn %d: hit=%v, want %v", i, s.vpn, hit, s.hit)
		}
		if pfn != pt[s.vpn] {
			t.Errorf("step %d: pfn %d", i, pfn)
		}
	}
	if tlb.Hits != 2 || tlb.Misses != 4 {
		t.Errorf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBPageFault(t *testing.T) {
	tlb := NewTLB(2)
	if _, _, err := tlb.Lookup(9, map[uint64]uint64{}); err == nil {
		t.Error("fault not reported")
	}
}

func TestMultiLevelEntries(t *testing.T) {
	got := MultiLevelEntries([]int{10, 10})
	if got[0] != 1024 || got[1] != 1024 {
		t.Errorf("entries %v", got)
	}
}

// --- Topology -------------------------------------------------------------

func TestTopologyDiameters(t *testing.T) {
	cases := []struct {
		top  Topology
		n    int
		want int
	}{
		{Mesh2D, 16, 6},
		{Torus2D, 16, 4},
		{Ring, 8, 4},
		{Hypercube, 16, 4},
		{Crossbar, 16, 1},
	}
	for _, c := range cases {
		got, err := Diameter(c.top, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.top, err)
		}
		if got != c.want {
			t.Errorf("diameter(%s, %d) = %d, want %d", c.top, c.n, got, c.want)
		}
	}
	if _, err := Diameter(Mesh2D, 15); err == nil {
		t.Error("non-square mesh accepted")
	}
	if _, err := Diameter(Hypercube, 12); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
}

func TestBisectionAndDegree(t *testing.T) {
	if b, _ := BisectionWidth(Mesh2D, 16); b != 4 {
		t.Errorf("mesh bisection %d", b)
	}
	if b, _ := BisectionWidth(Torus2D, 16); b != 8 {
		t.Errorf("torus bisection %d", b)
	}
	if b, _ := BisectionWidth(Hypercube, 16); b != 8 {
		t.Errorf("hypercube bisection %d", b)
	}
	if d, _ := LinksPerNode(Hypercube, 16); d != 4 {
		t.Errorf("hypercube degree %d", d)
	}
	if d, _ := LinksPerNode(Ring, 9); d != 2 {
		t.Errorf("ring degree %d", d)
	}
}

func TestQuickTorusNeverWorseThanMesh(t *testing.T) {
	// Property: wraparound links can only shorten paths.
	f := func(x0r, y0r, x1r, y1r uint8) bool {
		const w, h = 8, 8
		x0, y0 := int(x0r)%w, int(y0r)%h
		x1, y1 := int(x1r)%w, int(y1r)%h
		return TorusHops(w, h, x0, y0, x1, y1) <= MeshHops(x0, y0, x1, y1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMeshHopsTriangle(t *testing.T) {
	// Property: mesh distance obeys the triangle inequality.
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := func(v uint8) int { return int(v) % 16 }
		direct := MeshHops(a(ax), a(ay), a(cx), a(cy))
		via := MeshHops(a(ax), a(ay), a(bx), a(by)) + MeshHops(a(bx), a(by), a(cx), a(cy))
		return direct <= via
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Question generation ----------------------------------------------------

func TestGenerateComposition(t *testing.T) {
	qs := Generate()
	if len(qs) != 20 {
		t.Fatalf("generated %d, want 20", len(qs))
	}
	mc, sa := 0, 0
	kinds := map[visual.Kind]int{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
		if q.Category != dataset.Architecture {
			t.Errorf("%s: wrong category", q.ID)
		}
		if q.Type == dataset.MultipleChoice {
			mc++
		} else {
			sa++
		}
		kinds[q.Visual.Kind]++
	}
	if mc != 7 || sa != 13 {
		t.Errorf("mc=%d sa=%d, want 7/13", mc, sa)
	}
	want := map[visual.Kind]int{
		visual.KindDiagram: 10, visual.KindTable: 3, visual.KindFigure: 2,
		visual.KindStructure: 2, visual.KindMixed: 2, visual.KindNeuralNets: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("visual %s: %d, want %d", k, kinds[k], n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(), Generate()
	for i := range a {
		if a[i].Prompt != b[i].Prompt || a[i].Golden.Number != b[i].Golden.Number {
			t.Fatalf("question %d differs between runs", i)
		}
	}
}
