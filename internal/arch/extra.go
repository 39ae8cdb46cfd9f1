package arch

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/visual"
)

// ExtraAt builds the i-th extended Architecture question of fold seed,
// cycling through the package's templates; the "xr-" ID prefix keeps
// it clear of the fixed 142 questions.
func ExtraAt(seed string, i int) *dataset.Question {
	inst := fmt.Sprintf("%s-%d", seed, i)
	id := fmt.Sprintf("xr-%s-%02d", seed, i)
	switch i % 6 {
	case 0:
		return extraCacheSets(id, inst)
	case 1:
		return extraAMAT(id, inst)
	case 2:
		return extraMeshHops(id, inst)
	case 3:
		return extraPipelineCPI(id, inst)
	case 4:
		return extraOoO(id, inst)
	default:
		return extraPredictor(id, inst)
	}
}

func extraCacheSets(id, inst string) *dataset.Question {
	r := rng.New("arch-extra-cache", inst)
	sizeKiB := []int{8, 16, 32, 64}[r.IntN(4)]
	block := []int{32, 64}[r.IntN(2)]
	ways := []int{1, 2, 4, 8}[r.IntN(4)]
	cfg := CacheConfig{SizeBytes: sizeKiB * 1024, BlockSize: block, Ways: ways}
	sets := cfg.Sets()
	scene := visual.NewTableScene(visual.KindTable, "Cache parameters",
		[]string{"parameter", "value"},
		[][]string{
			{"capacity", fmt.Sprintf("%d KiB", sizeKiB)},
			{"block size", fmt.Sprintf("%d B", block)},
			{"associativity", fmt.Sprintf("%d-way", ways)},
		}, map[int]bool{1: true})
	return dataset.NewSANumber(id, dataset.Architecture, "cache-sets",
		"For the cache described by the parameter table in the figure, how many sets "+
			"does the cache have?",
		scene, float64(sets), "sets", 0, 0.5)
}

func extraAMAT(id, inst string) *dataset.Question {
	r := rng.New("arch-extra-amat", inst)
	hit := float64(1 + r.IntN(3))
	missRate := float64(1+r.IntN(10)) / 100
	penalty := float64(50 + 10*r.IntN(10))
	amat := AMAT(hit, penalty, missRate)
	scene := visual.NewBlockDiagram(visual.KindDiagram, "Memory hierarchy",
		[]string{"CPU", "L1", "DRAM"},
		[]string{fmt.Sprintf("L1 hit time: %g cycles", hit),
			fmt.Sprintf("L1 miss rate: %g%%", missRate*100),
			fmt.Sprintf("miss penalty: %g cycles", penalty)})
	return dataset.NewSANumber(id, dataset.Architecture, "amat",
		"For the memory hierarchy in the figure with the hit time, miss rate and miss "+
			"penalty annotated, what is the average memory access time in cycles?",
		scene, amat, "cycles", 0.02, 0.5)
}

func extraMeshHops(id, inst string) *dataset.Question {
	r := rng.New("arch-extra-mesh", inst)
	const side = 5
	x0, y0 := r.IntN(side), r.IntN(side)
	x1, y1 := r.IntN(side), r.IntN(side)
	if x0 == x1 && y0 == y1 {
		x1 = (x1 + 2) % side
	}
	hops := MeshHops(x0, y0, x1, y1)
	scene := visual.NewGridScene(visual.KindDiagram, "5x5 on-chip mesh", side, side,
		map[[2]int]string{{x0, y0}: "SRC", {x1, y1}: "DST"})
	return dataset.NewSANumber(id, dataset.Architecture, "mesh-hops",
		fmt.Sprintf("In the 5x5 mesh of the figure, what is the minimal hop count from "+
			"SRC at (%d,%d) to DST at (%d,%d) under dimension-order routing?", x0, y0, x1, y1),
		scene, float64(hops), "hops", 0, 0.45)
}

func extraPipelineCPI(id, inst string) *dataset.Question {
	r := rng.New("arch-extra-cpi", inst)
	n := 4 + r.IntN(4)
	prog := make([]Instr, n)
	for i := range prog {
		if r.IntN(3) == 0 {
			prog[i] = Instr{Op: OpLoad, Dest: 1 + r.IntN(6), Src1: 7}
		} else {
			src := 1 + r.IntN(6)
			prog[i] = Instr{Op: OpALU, Dest: 1 + r.IntN(6), Src1: src, Src2: 7}
		}
	}
	res := SimulatePipeline(prog, ClassicFiveStage())
	lines := make([]string, n)
	for i, ins := range prog {
		lines[i] = ins.Format()
	}
	scene := visual.NewBlockDiagram(visual.KindDiagram, "Fully forwarded 5-stage pipeline",
		[]string{"IF", "ID", "EX", "MEM", "WB"}, lines)
	return dataset.NewSANumber(id, dataset.Architecture, "pipeline-cpi",
		fmt.Sprintf("The fully forwarded 5-stage pipeline in the figure executes the "+
			"%d-instruction program listed. Counting pipeline fill, what is the CPI?", n),
		scene, res.CPI(), "CPI", 0.02, 0.65)
}

func extraOoO(id, inst string) *dataset.Question {
	r := rng.New("arch-extra-ooo", inst)
	n := 4 + r.IntN(5)
	prog := make([]Instr, n)
	for i := range prog {
		if r.IntN(4) == 0 {
			prog[i] = Instr{Op: OpLoad, Dest: 1 + r.IntN(6), Src1: 7}
		} else {
			prog[i] = Instr{Op: OpALU, Dest: 1 + r.IntN(6), Src1: 1 + r.IntN(6)}
		}
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		panic(err)
	}
	lines := make([]string, n)
	for i, ins := range prog {
		lines[i] = ins.Format()
	}
	scene := visual.NewBlockDiagram(visual.KindDiagram, "2-wide out-of-order core",
		[]string{"RENAME", "ISSUE Q", "2x ALU", "1x MEM"},
		append([]string{"ALU latency 1, load latency 3"}, lines...))
	return dataset.NewSANumber(id, dataset.Architecture, "ooo-cycles",
		fmt.Sprintf("The 2-wide out-of-order core in the figure (two 1-cycle ALUs, one "+
			"3-cycle memory unit, perfect renaming) executes the %d-instruction program "+
			"listed. In how many cycles does the last instruction complete?", n),
		scene, float64(res.Cycles), "cycles", 0, 0.8)
}

func extraPredictor(id, inst string) *dataset.Question {
	r := rng.New("arch-extra-pred", inst)
	iters := 3 + r.IntN(4)
	reps := 2 + r.IntN(3)
	outcomes := LoopOutcomes(iters, reps)
	miss := RunPredictor(NewTwoBit(4), 0x40, outcomes)
	scene := visual.NewAnnotatedFigure(visual.KindFigure, "2-bit saturating counter FSM",
		"states: 00 01 10 11; taken moves right, not-taken moves left",
		[]string{"initial state: 01 (weakly not-taken)",
			fmt.Sprintf("branch: loop of %d iterations, run %d times", iters, reps)})
	return dataset.NewSANumber(id, dataset.Architecture, "2bit-predictor",
		fmt.Sprintf("A 2-bit saturating-counter predictor (figure) starts weakly "+
			"not-taken and sees a loop branch that is taken %d times then falls through, "+
			"repeated %d times. How many mispredictions occur in total?", iters-1, reps),
		scene, float64(miss), "mispredictions", 0, 0.7)
}
