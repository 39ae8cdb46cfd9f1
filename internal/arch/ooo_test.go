package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOoOIndependentStream(t *testing.T) {
	// Eight independent ALU ops on a 2-wide core with 2 ALUs: 4 cycles.
	prog := make([]Instr, 8)
	for i := range prog {
		prog[i] = Instr{Op: OpALU, Dest: i + 1, Src1: 20}
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 4 {
		t.Errorf("8 independent ops, 2-wide: %d cycles, want 4", res.Cycles)
	}
	if ipc := res.IPC(); ipc != 2 {
		t.Errorf("IPC %v, want 2", ipc)
	}
}

func TestOoODependencyChain(t *testing.T) {
	// A pure RAW chain serialises completely regardless of width.
	prog := []Instr{
		{Op: OpALU, Dest: 1, Src1: 9},
		{Op: OpALU, Dest: 2, Src1: 1},
		{Op: OpALU, Dest: 3, Src1: 2},
		{Op: OpALU, Dest: 4, Src1: 3},
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 4 {
		t.Errorf("chain of 4: %d cycles, want 4", res.Cycles)
	}
}

func TestOoOHidesLoadLatency(t *testing.T) {
	// A load (3 cycles) plus independent ALU work: the ALU work fills
	// the shadow of the load.
	prog := []Instr{
		{Op: OpLoad, Dest: 1, Src1: 9},
		{Op: OpALU, Dest: 2, Src1: 8},
		{Op: OpALU, Dest: 3, Src1: 8},
		{Op: OpALU, Dest: 4, Src1: 1}, // consumer of the load
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	// Load issues cycle 1, completes 3; consumer issues cycle 4.
	if res.IssueCycle[3] != 4 {
		t.Errorf("load consumer issued at %d, want 4", res.IssueCycle[3])
	}
	// The two independent ALU ops issued before the load finished.
	if res.IssueCycle[1] > 2 || res.IssueCycle[2] > 2 {
		t.Errorf("independent work not hoisted: issue cycles %v", res.IssueCycle)
	}
}

func TestOoORenamingIgnoresWAW(t *testing.T) {
	// Two writes to r1 with no reads between them: renaming lets them
	// proceed in parallel (WAW is not a dependency).
	prog := []Instr{
		{Op: OpALU, Dest: 1, Src1: 8},
		{Op: OpALU, Dest: 1, Src1: 9},
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycle[0] != 1 || res.IssueCycle[1] != 1 {
		t.Errorf("WAW pair issued at %v, want both cycle 1", res.IssueCycle)
	}
}

func TestOoOStructuralHazard(t *testing.T) {
	// Two loads with a single memory unit serialise on the unit.
	prog := []Instr{
		{Op: OpLoad, Dest: 1, Src1: 8},
		{Op: OpLoad, Dest: 2, Src1: 9},
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycle[1] != res.CompleteCycle[0]+1 {
		t.Errorf("second load issued at %d, first completes %d",
			res.IssueCycle[1], res.CompleteCycle[0])
	}
}

func TestOoOConfigValidation(t *testing.T) {
	prog := []Instr{{Op: OpALU, Dest: 1}}
	bad := DefaultOoO()
	bad.IssueWidth = 0
	if _, err := SimulateOoO(prog, bad); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = DefaultOoO()
	bad.Units[FUALU] = 0
	if _, err := SimulateOoO(prog, bad); err == nil {
		t.Error("zero ALU count accepted")
	}
	if _, err := InOrderBaselineCycles(prog, bad); err == nil {
		t.Error("in-order baseline accepted bad config")
	}
}

func TestOoOEmptyProgram(t *testing.T) {
	res, err := SimulateOoO(nil, DefaultOoO())
	if err != nil || res.Cycles != 0 {
		t.Errorf("empty program: %v %v", res, err)
	}
	c, err := InOrderBaselineCycles(nil, DefaultOoO())
	if err != nil || c != 0 {
		t.Errorf("empty in-order baseline: %d %v", c, err)
	}
}

func randomOoOProgram(r *rand.Rand) []Instr {
	n := 2 + r.Intn(14)
	prog := make([]Instr, n)
	for i := range prog {
		op := []OpClass{OpALU, OpALU, OpLoad, OpStore}[r.Intn(4)]
		prog[i] = Instr{Op: op, Dest: r.Intn(8), Src1: r.Intn(8), Src2: r.Intn(8)}
		if op == OpStore {
			prog[i].Dest = 0
		}
	}
	return prog
}

// quickConfig draws the properties' seeds from a fixed source, so a
// failure reproduces on every run.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
}

// cycleBounds returns the cycles no schedule of prog on cfg can beat,
// and the cycles a schedule that never idles cannot exceed. The lower
// bound is the largest of the RAW critical path (an instruction
// completes at least its latency after its last producer), the issue
// slots ⌈n/IssueWidth⌉, and per functional-unit class ⌈Σlatency/Units⌉,
// since a unit is busy for an instruction's whole latency. The upper
// bound is Σlatency: running one instruction at a time.
func cycleBounds(prog []Instr, cfg OoOConfig) (lo, hi int) {
	done := make([]int, len(prog))
	var busy [numFUClasses]int
	lastWriter := map[int]int{}
	for i, ins := range prog {
		start := 0
		for _, src := range []int{ins.Src1, ins.Src2} {
			if w, ok := lastWriter[src]; ok && done[w] > start {
				start = done[w]
			}
		}
		class := fuClassOf(ins.Op)
		lat := cfg.Latency[class]
		done[i] = start + lat
		lo = max(lo, done[i])
		busy[class] += lat
		hi += lat
		if ins.Dest != 0 {
			lastWriter[ins.Dest] = i
		}
	}
	lo = max(lo, (len(prog)+cfg.IssueWidth-1)/cfg.IssueWidth)
	for c, b := range busy {
		lo = max(lo, (b+cfg.Units[c]-1)/cfg.Units[c])
	}
	return lo, hi
}

// TestOoOWiderIssueAnomaly pins a program on which greedy oldest-ready-
// first issue is slower with more issue slots, and slower than in-order
// single issue. At width 2 the independent load 2 takes the single,
// unpipelined memory unit at cycle 1, and the critical load 1, ready a
// cycle later, waits for it. At width 1 load 2 cannot issue beside
// instruction 0, so load 1 gets the unit first.
func TestOoOWiderIssueAnomaly(t *testing.T) {
	prog := []Instr{
		{Op: OpALU, Dest: 7, Src1: 6, Src2: 4},
		{Op: OpLoad, Dest: 6, Src1: 7, Src2: 5},
		{Op: OpLoad, Dest: 7, Src1: 3, Src2: 1},
		{Op: OpALU, Dest: 3, Src1: 6, Src2: 1},
		{Op: OpALU, Dest: 2, Src1: 3, Src2: 3},
	}
	for _, tc := range []struct{ width, cycles int }{{1, 7}, {2, 8}, {4, 8}} {
		cfg := DefaultOoO()
		cfg.IssueWidth = tc.width
		res, err := SimulateOoO(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != tc.cycles {
			t.Errorf("width %d: %d cycles, want %d", tc.width, res.Cycles, tc.cycles)
		}
	}
	if c, err := InOrderBaselineCycles(prog, DefaultOoO()); err != nil || c != 7 {
		t.Errorf("in-order baseline: %d cycles (%v), want 7", c, err)
	}
}

// TestQuickOoOMeetsCycleBounds: the out-of-order schedule and the
// in-order baseline both land within cycleBounds. Neither is a lower
// bound for the other (TestOoOWiderIssueAnomaly).
func TestQuickOoOMeetsCycleBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomOoOProgram(r)
		cfg := DefaultOoO()
		ooo, err := SimulateOoO(prog, cfg)
		if err != nil {
			return false
		}
		inOrder, err := InOrderBaselineCycles(prog, cfg)
		if err != nil {
			return false
		}
		lo, hi := cycleBounds(prog, cfg)
		cfg.IssueWidth = 1
		loSerial, _ := cycleBounds(prog, cfg)
		return lo <= ooo.Cycles && ooo.Cycles <= hi && loSerial <= inOrder && inOrder <= hi
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestQuickOoORespectsRAW(t *testing.T) {
	// Property: no instruction issues before its RAW producers complete.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomOoOProgram(r)
		res, err := SimulateOoO(prog, DefaultOoO())
		if err != nil {
			return false
		}
		lastWriter := map[int]int{}
		for i, ins := range prog {
			for _, src := range []int{ins.Src1, ins.Src2} {
				if src == 0 {
					continue
				}
				if w, ok := lastWriter[src]; ok {
					if res.IssueCycle[i] <= res.CompleteCycle[w] {
						return false
					}
				}
			}
			if ins.Dest != 0 {
				lastWriter[ins.Dest] = i
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickWidthsMeetCycleBounds: at issue widths 1, 2 and 4 the
// schedule lands within cycleBounds. Width is not monotone
// (TestOoOWiderIssueAnomaly), so the widths are not compared.
func TestQuickWidthsMeetCycleBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomOoOProgram(r)
		for _, w := range []int{1, 2, 4} {
			cfg := DefaultOoO()
			cfg.IssueWidth = w
			res, err := SimulateOoO(prog, cfg)
			if err != nil {
				return false
			}
			if lo, hi := cycleBounds(prog, cfg); res.Cycles < lo || res.Cycles > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}
