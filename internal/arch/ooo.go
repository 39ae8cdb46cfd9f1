package arch

import "fmt"

// The paper's Architecture section lists "out-of-order machines" among
// its topics. This file models a register-renamed, dataflow-scheduled
// core at the level graduate exercises use: RAW dependencies and
// structural (functional-unit / issue-width) constraints limit
// instruction-level parallelism; renaming removes WAR and WAW hazards.

// FUClass is a functional-unit class.
type FUClass int

// Functional-unit classes.
const (
	FUALU FUClass = iota
	FUMem
	FUBranch
	numFUClasses
)

// OoOConfig describes the out-of-order core.
type OoOConfig struct {
	// IssueWidth bounds instructions entering execution per cycle.
	IssueWidth int
	// Units[class] is the number of functional units of the class.
	Units [numFUClasses]int
	// Latency[class] is the execution latency in cycles.
	Latency [numFUClasses]int
}

// DefaultOoO returns a small 2-wide core: 2 ALUs (1 cycle), 1 memory
// unit (3 cycles), 1 branch unit (1 cycle).
func DefaultOoO() OoOConfig {
	var cfg OoOConfig
	cfg.IssueWidth = 2
	cfg.Units = [numFUClasses]int{2, 1, 1}
	cfg.Latency = [numFUClasses]int{1, 3, 1}
	return cfg
}

func fuClassOf(op OpClass) FUClass {
	switch op {
	case OpLoad, OpStore:
		return FUMem
	case OpBranch:
		return FUBranch
	default:
		return FUALU
	}
}

// OoOResult summarises one out-of-order simulation.
type OoOResult struct {
	Instructions int
	Cycles       int
	// IssueCycle[i] is the cycle instruction i starts executing.
	IssueCycle []int
	// CompleteCycle[i] is the cycle instruction i produces its result.
	CompleteCycle []int
}

// IPC returns instructions per cycle.
//
//lint:ignore unreachable kept for BenchmarkOoOvsInOrder in bench_test.go
func (r OoOResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// SimulateOoO schedules the program on the out-of-order core: an
// instruction may start once its RAW producers have completed (perfect
// renaming removes WAR/WAW), a functional unit of its class is free, and
// issue bandwidth remains this cycle. Oldest-ready-first arbitration
// keeps the schedule deterministic. It is a greedy list schedule, so
// more issue slots can lengthen it: an independent instruction may take
// a unit that a critical one, ready a cycle later, then waits for.
// Stores depend on their Src1/Src2; memory is otherwise perfectly
// disambiguated.
func SimulateOoO(prog []Instr, cfg OoOConfig) (OoOResult, error) {
	n := len(prog)
	res := OoOResult{Instructions: n}
	if n == 0 {
		return res, nil
	}
	if cfg.IssueWidth < 1 {
		return res, fmt.Errorf("arch: issue width %d", cfg.IssueWidth)
	}
	for c := FUClass(0); c < numFUClasses; c++ {
		if cfg.Units[c] < 1 || cfg.Latency[c] < 1 {
			return res, fmt.Errorf("arch: class %d needs at least 1 unit and 1 cycle", c)
		}
	}
	res.IssueCycle = make([]int, n)
	res.CompleteCycle = make([]int, n)
	issued := make([]bool, n)
	// lastWriter[r] = instruction index producing register r (for RAW
	// chains under renaming, each read binds to the most recent earlier
	// writer).
	producers := make([][]int, n)
	lastWriter := map[int]int{}
	for i, ins := range prog {
		for _, src := range []int{ins.Src1, ins.Src2} {
			if src == 0 {
				continue
			}
			if w, ok := lastWriter[src]; ok {
				producers[i] = append(producers[i], w)
			}
		}
		if ins.Dest != 0 {
			lastWriter[ins.Dest] = i
		}
	}
	// busyUntil[class][unit] = first free cycle of that unit.
	busy := make([][]int, numFUClasses)
	for c := range busy {
		busy[c] = make([]int, cfg.Units[c])
	}
	remaining := n
	for cycle := 1; remaining > 0; cycle++ {
		if cycle > 1_000_000 {
			return res, fmt.Errorf("arch: schedule did not converge")
		}
		slots := cfg.IssueWidth
		for i := 0; i < n && slots > 0; i++ {
			if issued[i] {
				continue
			}
			ready := true
			for _, p := range producers[i] {
				if !issued[p] || res.CompleteCycle[p] > cycle-1 {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			class := fuClassOf(prog[i].Op)
			unit := -1
			for u, freeAt := range busy[class] {
				if freeAt < cycle {
					unit = u
					break
				}
			}
			if unit < 0 {
				continue // structural hazard
			}
			lat := cfg.Latency[class]
			issued[i] = true
			res.IssueCycle[i] = cycle
			res.CompleteCycle[i] = cycle + lat - 1
			busy[class][unit] = cycle + lat - 1
			slots--
			remaining--
		}
	}
	for _, c := range res.CompleteCycle {
		if c > res.Cycles {
			res.Cycles = c
		}
	}
	return res, nil
}

// InOrderBaselineCycles runs the same dataflow/structural model but with
// strictly in-order single issue: instruction i cannot start before
// instruction i-1 has started. The gap to SimulateOoO quantifies the ILP
// an out-of-order window exposes.
//
//lint:ignore unreachable kept for BenchmarkOoOvsInOrder in bench_test.go
func InOrderBaselineCycles(prog []Instr, cfg OoOConfig) (int, error) {
	inOrder := cfg
	inOrder.IssueWidth = 1
	n := len(prog)
	if n == 0 {
		return 0, nil
	}
	// Serialise by adding a chain dependency through a virtual register:
	// simpler: run the scheduler but force oldest-first single issue and
	// require program order for issue.
	res := OoOResult{Instructions: n,
		IssueCycle:    make([]int, n),
		CompleteCycle: make([]int, n),
	}
	producers := make([][]int, n)
	lastWriter := map[int]int{}
	for i, ins := range prog {
		for _, src := range []int{ins.Src1, ins.Src2} {
			if src == 0 {
				continue
			}
			if w, ok := lastWriter[src]; ok {
				producers[i] = append(producers[i], w)
			}
		}
		if ins.Dest != 0 {
			lastWriter[ins.Dest] = i
		}
	}
	busy := make([][]int, numFUClasses)
	for c := range busy {
		if inOrder.Units[c] < 1 || inOrder.Latency[c] < 1 {
			return 0, fmt.Errorf("arch: class %d needs at least 1 unit and 1 cycle", c)
		}
		busy[c] = make([]int, inOrder.Units[c])
	}
	cycle := 0
	for i := 0; i < n; i++ {
		start := cycle + 1
		for _, p := range producers[i] {
			if res.CompleteCycle[p]+1 > start {
				start = res.CompleteCycle[p] + 1
			}
		}
		class := fuClassOf(prog[i].Op)
		// Earliest cycle any unit of the class is free.
		bestFree := busy[class][0]
		for _, f := range busy[class] {
			if f < bestFree {
				bestFree = f
			}
		}
		if bestFree+1 > start {
			start = bestFree + 1
		}
		lat := inOrder.Latency[class]
		res.IssueCycle[i] = start
		res.CompleteCycle[i] = start + lat - 1
		// Occupy the earliest-free unit.
		for u := range busy[class] {
			if busy[class][u] == bestFree {
				busy[class][u] = start + lat - 1
				break
			}
		}
		cycle = start
	}
	worst := 0
	for _, c := range res.CompleteCycle {
		if c > worst {
			worst = c
		}
	}
	return worst, nil
}
