package digital

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// ExtraAt builds the i-th extended Digital Design question of fold
// seed (the paper's future-work "ChipVQA-oriented dataset collection"),
// cycling through the package's templates; the "xd-" ID prefix keeps it
// clear of the fixed 142 questions.
func ExtraAt(seed string, i int) *dataset.Question {
	inst := fmt.Sprintf("%s-%d", seed, i)
	id := fmt.Sprintf("xd-%s-%02d", seed, i)
	switch i % 6 {
	case 0:
		return extraTruthTable(id, inst)
	case 1:
		return extraCircuit(id, inst)
	case 2:
		return extraCounter(id, inst)
	case 3:
		return extraTwosComplement(id, inst)
	case 4:
		return extraDetector(id, inst)
	default:
		return extraGray(id, inst)
	}
}

func extraTruthTable(id, inst string) *dataset.Question {
	r := rng.New("digital-extra-tt", inst)
	vars := []string{"A", "B", "C"}
	count := 2 + r.IntN(4)
	minterms := randomMinterms("x"+inst, 3, count)
	tt := FromMinterms(vars, minterms)
	golden := Minimize(vars, minterms, nil)
	scene := TruthTableScene(tt, "F", "Truth table")
	return dataset.NewMC(id, dataset.Digital, "tt-derive",
		"Derive the minimal sum-of-products function F for the truth table shown in the figure.",
		scene, "F = "+golden.String(),
		expressionDistractors("x"+id, vars, minterms, "F"), 0.5)
}

func extraCircuit(id, inst string) *dataset.Question {
	r := rng.New("digital-extra-circuit", inst)
	depth := 2 + r.IntN(2)
	n, _ := randomCircuit("x"+inst, depth)
	tt, err := n.TruthTable("F")
	if err != nil {
		panic(err)
	}
	golden := Minimize(tt.Vars, tt.Minterms(), nil)
	scene := CircuitScene(n, "Logic circuit", nil)
	return dataset.NewMC(id, dataset.Digital, "gate-analysis",
		"The figure shows a logic circuit built from basic gates. Which expression "+
			"describes the output F?",
		scene, "F = "+golden.String(),
		expressionDistractors("x"+id, tt.Vars, tt.Minterms(), "F"), 0.5)
}

func extraCounter(id, inst string) *dataset.Question {
	r := rng.New("digital-extra-counter", inst)
	bits := 3 + r.IntN(2)
	state := r.IntN(1 << bits)
	seq := Counter(bits, state, 1)
	golden := BitString(seq[1], bits)
	scene := counterScene(bits, "Binary counter", "binary")
	mask := 1<<bits - 1
	others := dataset.DistinctOptions(golden,
		BitString(seq[1]^1, bits),
		BitString(state, bits),
		BitString((state+2)&mask, bits),
		BitString(seq[1]^2, bits),
		BitString((state+3)&mask, bits))
	return dataset.NewMC(id, dataset.Digital, "counter-next",
		fmt.Sprintf("A %d-bit synchronous binary up-counter shown in the figure is in "+
			"state %s. What is its state after the next clock edge?", bits, BitString(state, bits)),
		scene, golden, others, 0.4)
}

func extraTwosComplement(id, inst string) *dataset.Question {
	r := rng.New("digital-extra-tc", inst)
	word := r.IntN(256)
	if word < 128 {
		word += 128 // force a negative value for interest
	}
	val := FromTwosComplement(word, 8)
	scene := RegisterScene(word, 8, "8-bit register")
	others := dataset.DistinctOptions(fmt.Sprint(val),
		fmt.Sprint(word), fmt.Sprint(-val), fmt.Sprint(val+128), fmt.Sprint(val-1))
	return dataset.NewMCNumeric(id, dataset.Digital, "twos-complement",
		"The 8-bit register in the figure holds the bit pattern shown. Interpreted as a "+
			"two's-complement signed integer, what is its decimal value?",
		scene, float64(val), "", 0,
		fmt.Sprint(val), others, 0.45)
}

func extraDetector(id, inst string) *dataset.Question {
	r := rng.New("digital-extra-det", inst)
	patterns := [][]int{{1, 0, 1}, {1, 1, 0}, {0, 1, 1}, {1, 0, 0}}
	pattern := patterns[r.IntN(len(patterns))]
	st, err := SequenceDetectorTable(pattern)
	if err != nil {
		panic(err)
	}
	stream := make([]int, 6)
	for i := range stream {
		stream[i] = r.IntN(2)
	}
	_, outs, err := st.Step(0, stream)
	if err != nil {
		panic(err)
	}
	detections := 0
	for _, o := range outs {
		detections += o
	}
	fsm, err := SynthesizeDFF(st)
	if err != nil {
		panic(err)
	}
	scene := EquationsScene(append([]string{
		fmt.Sprintf("overlapping detector for pattern %v", pattern)},
		fsm.Equations()...), "Sequence detector synthesis")
	golden := fmt.Sprintf("%d detections", detections)
	others := dataset.DistinctOptions(golden,
		fmt.Sprintf("%d detections", detections+1),
		fmt.Sprintf("%d detections", detections+2),
		fmt.Sprintf("%d detections", maxInt(0, detections-1)),
		fmt.Sprintf("%d detections", detections+3))
	return dataset.NewMC(id, dataset.Digital, "sequence-detector",
		fmt.Sprintf("The figure lists the synthesized next-state and output equations of "+
			"an overlapping sequence detector for the pattern %v (state in Q bits, input X, "+
			"output Z). Starting from state 0, how many times does Z assert over the input "+
			"stream %v?", pattern, stream),
		scene, golden, others, 0.75)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func extraGray(id, inst string) *dataset.Question {
	r := rng.New("digital-extra-gray", inst)
	v := r.IntN(7)
	g := GrayEncode(v)
	gNext := GrayEncode(v + 1)
	scene := RegisterScene(g, 3, "Gray-code register")
	others := dataset.DistinctOptions(BitString(gNext, 3),
		BitString((g+1)&7, 3),
		BitString((v+1)&7, 3),
		BitString(gNext^0b111, 3),
		BitString(gNext^0b010, 3),
		BitString(gNext^0b100, 3),
		BitString(gNext^0b001, 3))
	return dataset.NewMC(id, dataset.Digital, "gray-code",
		"The register in the figure holds a 3-bit Gray-code value. What is the next "+
			"codeword in the Gray sequence?",
		scene, BitString(gNext, 3), others, 0.55)
}
