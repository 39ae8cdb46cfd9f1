package digital

import (
	"strconv"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// ExtraAt builds the i-th extended Digital Design question of fold
// seed (the paper's future-work "ChipVQA-oriented dataset collection"),
// cycling through the package's templates; the "xd-" ID prefix keeps it
// clear of the fixed 142 questions.
func ExtraAt(seed string, i int) *dataset.Question {
	var key [32]byte
	id, inst := dataset.ExtraID("xd-", seed, i), string(dataset.AppendExtraInst(key[:0], seed, i))
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
	r := rng.NewStream("digital-extra-tt", inst)
	vars := []string{"A", "B", "C"}
	count := 2 + r.IntN(4)
	minterms := randomMinterms("x"+inst, 3, count)
	scene := TruthTableScene(FromMinterms(vars, minterms), "F", "Truth table")
	golden, others := expressionChoices("x"+id, vars, minterms, "F")
	return dataset.NewMC(id, dataset.Digital, "tt-derive",
		"Derive the minimal sum-of-products function F for the truth table shown in the figure.",
		scene, golden, others, 0.5)
}

func extraCircuit(id, inst string) *dataset.Question {
	r := rng.NewStream("digital-extra-circuit", inst)
	depth := 2 + r.IntN(2)
	n := randomCircuit("x"+inst, depth)
	tt, err := n.TruthTable("F")
	if err != nil {
		panic(err)
	}
	scene := CircuitScene(n, "Logic circuit", nil)
	golden, others := expressionChoices("x"+id, tt.Vars, tt.Minterms(), "F")
	return dataset.NewMC(id, dataset.Digital, "gate-analysis",
		"The figure shows a logic circuit built from basic gates. Which expression "+
			"describes the output F?",
		scene, golden, others, 0.5)
}

func extraCounter(id, inst string) *dataset.Question {
	r := rng.NewStream("digital-extra-counter", inst)
	bits := 3 + r.IntN(2)
	state := r.IntN(1 << bits)
	next := Counter(bits, state, 1)[1]
	cur, golden := BitString(state, bits), BitString(next, bits)
	scene := counterScene(bits, "Binary counter", "binary")
	mask := 1<<bits - 1
	others := dataset.DistinctOptions(golden,
		BitString(next^1, bits),
		cur,
		BitString((state+2)&mask, bits),
		BitString(next^2, bits),
		BitString((state+3)&mask, bits))
	return dataset.NewMC(id, dataset.Digital, "counter-next",
		"A "+strconv.Itoa(bits)+"-bit synchronous binary up-counter shown in the figure is in "+
			"state "+cur+". What is its state after the next clock edge?",
		scene, golden, others, 0.4)
}

func extraTwosComplement(id, inst string) *dataset.Question {
	r := rng.NewStream("digital-extra-tc", inst)
	word := r.IntN(256)
	if word < 128 {
		word += 128 // force a negative value for interest
	}
	val := FromTwosComplement(word, 8)
	scene := RegisterScene(word, 8, "8-bit register")
	golden := strconv.Itoa(val)
	others := dataset.DistinctOptions(golden,
		strconv.Itoa(word), strconv.Itoa(-val), strconv.Itoa(val+128), strconv.Itoa(val-1))
	return dataset.NewMCNumeric(id, dataset.Digital, "twos-complement",
		"The 8-bit register in the figure holds the bit pattern shown. Interpreted as a "+
			"two's-complement signed integer, what is its decimal value?",
		scene, float64(val), "", 0,
		golden, others, 0.45)
}

func extraDetector(id, inst string) *dataset.Question {
	r := rng.NewStream("digital-extra-det", inst)
	patterns := [...][3]int{{1, 0, 1}, {1, 1, 0}, {0, 1, 1}, {1, 0, 0}}
	pattern := patterns[r.IntN(len(patterns))]
	st, err := SequenceDetectorTable(pattern[:])
	if err != nil {
		panic(err)
	}
	var stream [6]int
	for i := range stream {
		stream[i] = r.IntN(2)
	}
	_, outs, err := st.Step(0, stream[:])
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
	var patBuf, streamBuf [16]byte
	pat := appendInts(patBuf[:0], pattern[:])
	lines := append(make([]string, 0, fsm.StateBits+2), "overlapping detector for pattern "+string(pat))
	scene := EquationsScene(append(lines, fsm.Equations()...), "Sequence detector synthesis")
	count := func(n int) string { return strconv.Itoa(n) + " detections" }
	golden := count(detections)
	others := dataset.DistinctOptions(golden,
		count(detections+1),
		count(detections+2),
		count(max(0, detections-1)),
		count(detections+3))
	return dataset.NewMC(id, dataset.Digital, "sequence-detector",
		"The figure lists the synthesized next-state and output equations of "+
			"an overlapping sequence detector for the pattern "+string(pat)+" (state in Q bits, input X, "+
			"output Z). Starting from state 0, how many times does Z assert over the input "+
			"stream "+string(appendInts(streamBuf[:0], stream[:]))+"?",
		scene, golden, others, 0.75)
}

// appendInts appends xs the way fmt's %v prints an []int: "[1 0 1]".
func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func extraGray(id, inst string) *dataset.Question {
	r := rng.NewStream("digital-extra-gray", inst)
	v := r.IntN(7)
	g := GrayEncode(v)
	gNext := GrayEncode(v + 1)
	scene := RegisterScene(g, 3, "Gray-code register")
	golden := BitString(gNext, 3)
	others := dataset.DistinctOptions(golden,
		BitString((g+1)&7, 3),
		BitString((v+1)&7, 3),
		BitString(gNext^0b111, 3),
		BitString(gNext^0b010, 3),
		BitString(gNext^0b100, 3),
		BitString(gNext^0b001, 3))
	return dataset.NewMC(id, dataset.Digital, "gray-code",
		"The register in the figure holds a 3-bit Gray-code value. What is the next "+
			"codeword in the Gray sequence?",
		scene, golden, others, 0.55)
}
