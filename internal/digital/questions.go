package digital

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/visual"
)

// Generate produces the 35 Digital Design questions of the benchmark
// (all multiple choice, per §III-B1): 20 schematics, 6 tables, 6
// diagrams, 2 equation sheets and 1 neural-net figure. Every golden
// answer is computed by the engines in this package; distractors are
// verified non-equivalent mutations.
func Generate() []*dataset.Question {
	var qs []*dataset.Question
	add := func(q *dataset.Question) { qs = append(qs, q) }

	// --- Schematics -------------------------------------------------

	// d01..d04: analyse a random two-level gate circuit.
	circuitSpecs := []struct {
		id    string
		seed  string
		depth int
	}{
		{"d01", "alpha", 2}, {"d02", "beta", 2}, {"d03", "gamma", 3}, {"d04", "delta", 3},
	}
	for _, spec := range circuitSpecs {
		n := randomCircuit(spec.seed, spec.depth)
		tt, err := n.TruthTable("F")
		if err != nil {
			panic(err)
		}
		golden, others := expressionChoices(spec.id, tt.Vars, tt.Minterms(), "F")
		scene := CircuitScene(n, "Logic circuit", nil)
		add(dataset.NewMC(spec.id, dataset.Digital, "gate-analysis",
			"The figure shows a logic circuit built from basic gates with inputs "+
				joinVars(tt.Vars)+". Which expression describes the output F of the circuit?",
			scene, golden, others, 0.45+0.05*float64(spec.depth)))
	}

	// d05, d06: NAND-NAND implementation.
	for i, seed := range []string{"nand1", "nand2"} {
		id := fmt.Sprintf("d%02d", 5+i)
		vars := []string{"A", "B", "C"}
		minterms := randomMinterms(seed, 3, 3+i)
		n := nandNandNetlist(Minimize(vars, minterms, nil), vars)
		scene := CircuitScene(n, "NAND-only circuit", nil)
		golden, others := expressionChoices(id, vars, minterms, "F")
		add(dataset.NewMC(id, dataset.Digital, "nand-nand",
			"The circuit in the figure is built exclusively from NAND gates in a "+
				"two-level NAND-NAND structure. Which sum-of-products function does it implement?",
			scene, golden, others, 0.55))
	}

	// d07, d08: 4:1 multiplexer with data inputs tied to constants or C.
	muxCases := []struct {
		id   string
		data [4]string // value on data input i, selected by S1 S0 = i
	}{
		{"d07", [4]string{"0", "C", "C'", "1"}},
		{"d08", [4]string{"C", "1", "0", "C"}},
	}
	for _, mc := range muxCases {
		golden := muxFunction(mc.data)
		scene := muxScene(mc.data)
		vars := []string{"C", "S0", "S1"}
		_, others := expressionChoices(mc.id, vars, Minterms(golden, vars), "F")
		add(dataset.NewMC(mc.id, dataset.Digital, "mux",
			"A 4:1 multiplexer has select inputs S1 (MSB) and S0, and its four data "+
				"inputs D0..D3 are tied to the constants and signals shown in the figure. "+
				"Which function F(S1, S0, C) does the circuit realize?",
			scene, "F = "+golden.String(), others, 0.6))
	}

	// d09, d10: circuit recognition (half adder, full adder).
	add(recognitionQuestion("d09", halfAdderNetlist(), "half adder",
		[3]string{"full adder", "2-bit magnitude comparator", "2-to-1 multiplexer"},
		"The figure shows the truth-table behaviour and gate-level circuit for adding "+
			"two 1-bit integers, producing a sum and a carry. What is this circuit usually called?"))
	// d10 deliberately carries the benchmark's shortest prompt (Table I
	// reports prompts from 5 tokens up): the figure must do all the work.
	add(recognitionQuestion("d10", fullAdderNetlist(), "full adder",
		[3]string{"half adder", "4-bit ripple-carry adder", "carry-lookahead unit"},
		"Name this circuit."))

	// d11, d12: output as a function of C with A, B fixed.
	gateValueCases := []struct {
		id     string
		a, b   bool
		kind   GateKind
		second GateKind
	}{
		{"d11", true, false, GateAnd, GateOr},
		{"d12", true, true, GateNand, GateXor},
	}
	for _, gc := range gateValueCases {
		n := NewNetlist().
			AddGate(gc.kind, "G1", "n1", "A", "B").
			AddGate(gc.second, "G2", "F", "n1", "C")
		golden := gateValueAnswer(n, gc.a, gc.b)
		scene := CircuitScene(n, "Two-gate network", nil)
		scene.Add(visual.Element{
			Type: visual.ElemValue, Name: "pin-values",
			Label: fmt.Sprintf("A=%d B=%d", boolBit(gc.a), boolBit(gc.b)),
			X:     30, Y: 30, Salience: 0.65, Critical: true,
		})
		add(dataset.NewMC(gc.id, dataset.Digital, "gate-eval",
			fmt.Sprintf("With the input values A=%d and B=%d annotated in the figure, "+
				"the output F of the circuit equals which of the following?",
				boolBit(gc.a), boolBit(gc.b)),
			scene, golden, dataset.PickOthers(golden, []string{"0", "1", "C", "C'"}), 0.35))
	}

	// d13, d14: SR latch behaviour from a cross-coupled NOR schematic.
	latchCases := []struct {
		id     string
		s, r   int
		golden string
		others [3]string
	}{
		{"d13", 1, 0, "Q is set to 1",
			[3]string{"Q is reset to 0", "Q holds its previous value", "Q oscillates (invalid)"}},
		{"d14", 0, 0, "Q holds its previous value",
			[3]string{"Q is set to 1", "Q is reset to 0", "Q oscillates (invalid)"}},
	}
	for _, lc := range latchCases {
		n := NewNetlist().
			AddGate(GateNor, "G1", "Q", "R", "Qb").
			AddGate(GateNor, "G2", "Qb", "S", "Q")
		scene := CircuitScene(n, "Cross-coupled NOR latch", map[string]bool{"Q": true, "Qb": true})
		scene.Add(visual.Element{
			Type: visual.ElemValue, Name: "sr-values",
			Label: fmt.Sprintf("S=%d R=%d", lc.s, lc.r),
			X:     30, Y: 30, Salience: 0.65, Critical: true,
		})
		add(dataset.NewMC(lc.id, dataset.Digital, "latch",
			fmt.Sprintf("The figure shows a latch built from two cross-coupled NOR gates. "+
				"With S=%d and R=%d applied as annotated, what happens to the output Q?", lc.s, lc.r),
			scene, lc.golden, lc.others, 0.5))
	}

	// d15: ring counter state after k clocks.
	{
		const bits, k = 4, 5
		seq := RingCounter(bits, k)
		golden := BitString(seq[k], bits)
		scene := counterScene(bits, "Ring counter", "ring")
		add(dataset.NewMC("d15", dataset.Digital, "ring-counter",
			fmt.Sprintf("The figure shows a %d-bit ring counter initialised to %s. "+
				"What is the register state after %d clock pulses?",
				bits, BitString(seq[0], bits), k),
			scene, golden,
			[3]string{BitString(seq[k-1], bits),
				BitString(seq[k]>>1|(seq[k]&1)<<(bits-1), bits),
				BitString(seq[k]^0b0011, bits)}, 0.45))
	}
	// d16: Johnson counter state after k clocks.
	{
		const bits, k = 3, 4
		seq := JohnsonCounter(bits, k)
		golden := BitString(seq[k], bits)
		distract := map[string]bool{golden: true}
		var others [3]string
		cands := []string{BitString(seq[k-1], bits), BitString(seq[k]^0b100, bits),
			BitString(seq[k]^0b001, bits), BitString(seq[k]^0b111, bits)}
		oi := 0
		for _, c := range cands {
			if oi < 3 && !distract[c] {
				others[oi] = c
				distract[c] = true
				oi++
			}
		}
		scene := counterScene(bits, "Johnson counter", "johnson")
		add(dataset.NewMC("d16", dataset.Digital, "johnson-counter",
			fmt.Sprintf("The figure shows a %d-bit Johnson (twisted-ring) counter starting "+
				"from the all-zeros state. What is the register state after %d clock pulses?", bits, k),
			scene, golden, others, 0.5))
	}

	// d17: 3-to-8 decoder output line.
	{
		input := 0b101
		scene := decoderScene(3, input)
		golden := fmt.Sprintf("Y%d", input)
		add(dataset.NewMC("d17", dataset.Digital, "decoder",
			"The 3-to-8 decoder in the figure has its address inputs driven with the "+
				"binary value annotated on the schematic (A2 is the MSB). Which output line is asserted?",
			scene, golden, [3]string{"Y2", "Y3", "Y7"}, 0.35))
	}
	// d18: priority encoder.
	{
		// Inputs asserted: I1, I4, I6; highest index wins.
		scene := encoderScene([]int{1, 4, 6})
		add(dataset.NewMC("d18", dataset.Digital, "priority-encoder",
			"An 8-to-3 priority encoder (highest index has priority) receives the request "+
				"lines asserted as shown in the figure. What code appears on the outputs A2 A1 A0?",
			scene, "110", [3]string{"001", "100", "111"}, 0.45))
	}
	// d19: equality comparator recognition.
	{
		n := NewNetlist().
			AddGate(GateXnor, "G1", "e0", "A0", "B0").
			AddGate(GateXnor, "G2", "e1", "A1", "B1").
			AddGate(GateAnd, "G3", "EQ", "e0", "e1")
		scene := CircuitScene(n, "Mystery two-bit circuit", nil)
		add(dataset.NewMC("d19", dataset.Digital, "comparator",
			"The circuit in the figure combines two XNOR gates and an AND gate over the "+
				"bit pairs (A1,B1) and (A0,B0). What does the output EQ indicate?",
			scene, "EQ=1 exactly when the two 2-bit words are equal",
			[3]string{"EQ=1 exactly when A > B", "EQ is the sum bit of A+B",
				"EQ=1 exactly when both words are zero"}, 0.4))
	}
	// d20: 2-bit ripple-carry adder numeric result.
	{
		a, b := 0b10, 0b11
		res := Add(a, b, 3, false)
		scene := adderScene(a, b)
		golden := BitString(res.Sum, 3)
		add(dataset.NewMC("d20", dataset.Digital, "ripple-adder",
			"The 2-bit ripple-carry adder in the figure receives the operand values "+
				"annotated on its inputs. What 3-bit result (carry, sum1, sum0) does it produce?",
			scene, golden, [3]string{BitString(res.Sum^0b001, 3), BitString(res.Sum^0b100, 3),
				BitString((a+b+1)&0b111, 3)}, 0.4))
	}

	// --- Tables -----------------------------------------------------

	// d21, d22: derive minimal SOP from a Karnaugh map (the "excitation
	// map" figure style of §III-B1).
	for i, seed := range []string{"tt1", "tt2"} {
		id := fmt.Sprintf("d%02d", 21+i)
		vars := []string{"A", "B", "C"}
		minterms := randomMinterms(seed, 3, 4)
		tt := FromMinterms(vars, minterms)
		scene, err := KMapScene(tt, "F", "Karnaugh map")
		if err != nil {
			panic(err)
		}
		golden, others := expressionChoices(id, vars, minterms, "F")
		add(dataset.NewMC(id, dataset.Digital, "kmap-derive",
			"Derive the minimal sum-of-products function F for the Karnaugh map shown "+
				"in the figure (rows and columns are Gray-coded).",
			scene, golden, others, 0.5))
	}
	// d23: parity recognition.
	{
		vars := []string{"A", "B", "C"}
		parity := MustParse("A ^ B ^ C")
		tt := NewTruthTable(parity, vars)
		scene := TruthTableScene(tt, "F", "Mystery function")
		add(dataset.NewMC("d23", dataset.Digital, "tt-recognize",
			"The truth table in the figure defines a function F of three inputs. "+
				"Which well-known function is it?",
			scene, "odd parity (3-input XOR)",
			[3]string{"even parity (3-input XNOR)", "2-out-of-3 majority", "3-input NAND"}, 0.4))
	}
	// d24: SR flip-flop characteristic equation from excitation maps —
	// the exact example discussed in §III-B1 of the paper.
	{
		vars := []string{"S", "R", "q"}
		// Q+ rows for (S,R,q): derived from NextState, S=R=1 rows are
		// don't-cares.
		var minterms, dontCares []int
		for m := 0; m < 8; m++ {
			s, r, q := m&4 != 0, m&2 != 0, m&1 != 0
			if s && r {
				dontCares = append(dontCares, m)
				continue
			}
			qn, err := NextState(FFSR, q, s, r)
			if err != nil {
				panic(err)
			}
			if qn {
				minterms = append(minterms, m)
			}
		}
		tt := FromMinterms(vars, minterms)
		scene := TruthTableScene(tt, "Q+", "SR state table and excitation map")
		golden := Minimize(vars, minterms, dontCares)
		add(dataset.NewMC("d24", dataset.Digital, "sr-characteristic",
			"Derive the function for Q given the state table and excitation maps as shown "+
				"in the figure (q is the present state, Q the next state).",
			scene, "Q = "+golden.String(),
			[3]string{"Q = S'q + S", "Q = Sq' + R'q'", "Q = S'R'q + SR"}, 0.7))
	}
	// d25: binary counter next state.
	{
		const bits = 3
		state := 0b101
		seq := Counter(bits, state, 2)
		tt := FromMinterms([]string{"Q2", "Q1", "Q0"}, []int{1, 3, 5, 7})
		scene := TruthTableScene(tt, "T0", "Counter excitation table")
		golden := BitString(seq[1], bits)
		add(dataset.NewMC("d25", dataset.Digital, "counter-next",
			fmt.Sprintf("A %d-bit synchronous binary up-counter is currently in state %s. "+
				"Using the excitation table shown, what is the state after the next clock edge?",
				bits, BitString(state, bits)),
			scene, golden,
			[3]string{BitString(seq[2], bits), BitString(state, bits), BitString(state-1, bits)}, 0.45))
	}
	// d26: majority function from table.
	{
		vars := []string{"A", "B", "C"}
		maj := MustParse("AB + AC + BC")
		tt := NewTruthTable(maj, vars)
		minterms := tt.Minterms()
		scene := TruthTableScene(tt, "F", "Voting circuit table")
		golden, others := expressionChoices("d26", vars, minterms, "F")
		add(dataset.NewMC("d26", dataset.Digital, "majority",
			"The truth table in the figure describes a 3-input voting circuit. "+
				"Which minimal sum-of-products expression implements it?",
			scene, golden, others, 0.5))
	}

	// --- Diagrams ---------------------------------------------------

	// d27, d28: shift register contents after k shifts.
	shiftCases := []struct {
		id      string
		initial int
		bits    int
		shifts  int
		serial  []int
	}{
		{"d27", 0b1011, 4, 2, []int{0, 1}},
		{"d28", 0b0110, 4, 3, []int{1, 0, 1}},
	}
	for _, sc := range shiftCases {
		state := sc.initial
		for _, in := range sc.serial[:sc.shifts] {
			state = (state >> 1) | in<<(sc.bits-1)
		}
		labels := make([]string, sc.bits)
		for i := range labels {
			labels[i] = fmt.Sprintf("FF%d=%d", sc.bits-1-i, (sc.initial>>(sc.bits-1-i))&1)
		}
		scene := BlockChainScene(labels, "Right-shift register", true)
		golden := BitString(state, sc.bits)
		add(dataset.NewMC(sc.id, dataset.Digital, "shift-register",
			fmt.Sprintf("The 4-bit right-shift register in the figure holds the value shown. "+
				"After %d clock pulses with the serial input sequence %v (first value first), "+
				"what does the register contain?", sc.shifts, sc.serial[:sc.shifts]),
			scene, golden,
			[3]string{BitString(sc.initial, sc.bits), BitString(state>>1, sc.bits),
				BitString((state<<1)&(1<<sc.bits-1), sc.bits)}, 0.55))
	}
	// d29: critical path depth.
	{
		n := randomCircuit("depth", 4)
		d, err := n.Depth("F")
		if err != nil {
			panic(err)
		}
		scene := CircuitScene(n, "Gate network", nil)
		scene.Kind = visual.KindDiagram
		add(dataset.NewMCNumeric("d29", dataset.Digital, "critical-path",
			"Assuming every gate in the figure has one unit of delay and wires are ideal, "+
				"how many gate delays long is the critical path from the inputs to F?",
			scene, float64(d), "gate delays", 0,
			fmt.Sprintf("%d gate delays", d),
			[3]string{fmt.Sprintf("%d gate delays", d-1), fmt.Sprintf("%d gate delays", d+1),
				fmt.Sprintf("%d gate delays", d+2)}, 0.5))
	}
	// d30: two's-complement value of a register.
	{
		word := 0b10110100
		val := FromTwosComplement(word, 8)
		scene := RegisterScene(word, 8, "8-bit register")
		add(dataset.NewMCNumeric("d30", dataset.Digital, "twos-complement",
			"The 8-bit register in the figure holds the bit pattern shown. Interpreted as a "+
				"two's-complement signed integer, what is its decimal value?",
			scene, float64(val), "", 0,
			fmt.Sprint(val),
			[3]string{fmt.Sprint(word), fmt.Sprint(-word & 0xff), fmt.Sprint(val + 128)}, 0.45))
	}
	// d31: Gray code successor.
	{
		v := 5 // binary 101, gray 111
		g := GrayEncode(v)
		gNext := GrayEncode(v + 1)
		scene := RegisterScene(g, 3, "Gray-code register")
		add(dataset.NewMC("d31", dataset.Digital, "gray-code",
			"The register in the figure holds a 3-bit Gray-code value. What is the next "+
				"codeword in the Gray sequence?",
			scene, BitString(gNext, 3),
			[3]string{BitString(g+1, 3), BitString(v+1, 3), BitString(gNext^0b111, 3)}, 0.55))
	}
	// d32: D flip-flop sampling.
	{
		scene := dffTimingScene()
		add(dataset.NewMC("d32", dataset.Digital, "dff-timing",
			"The timing diagram in the figure shows the D input and clock of a positive-"+
				"edge-triggered D flip-flop. D is 1 at the first rising edge and 0 at the second. "+
				"What is Q after the second rising clock edge?",
			scene, "0", [3]string{"1", "Q holds its initial value", "metastable (undefined)"}, 0.4))
	}

	// --- Equation sheets ---------------------------------------------

	// d33: simplify an SOP expression.
	{
		raw := "AB'C + ABC + A'BC + ABC'"
		e := MustParse(raw)
		vars := Vars(e)
		scene := EquationsScene([]string{"F = " + raw}, "Simplify the function")
		golden, others := expressionChoices("d33", vars, Minterms(e, vars), "F")
		add(dataset.NewMC("d33", dataset.Digital, "simplify",
			"Simplify the sum-of-products function shown in the figure to a minimal "+
				"sum-of-products form.",
			scene, golden, others, 0.55))
	}
	// d34: De Morgan equivalence.
	{
		scene := EquationsScene([]string{"G = (A + B)'"}, "Equivalent form")
		add(dataset.NewMC("d34", dataset.Digital, "demorgan",
			"Using De Morgan's theorem, which expression is equivalent to the function G "+
				"shown in the figure?",
			scene, "G = A'B'", [3]string{"G = A' + B'", "G = AB", "G = (AB)'"}, 0.35))
	}

	// --- Neural nets --------------------------------------------------

	// d35: perceptron implementing a logic gate.
	{
		scene := PerceptronScene([]float64{1, 1}, 1.5, "Threshold unit")
		add(dataset.NewMC("d35", dataset.Digital, "perceptron",
			"The single threshold unit in the figure fires (outputs 1) when the weighted sum "+
				"of its binary inputs meets the threshold annotated. Which logic function of "+
				"x1 and x2 does it compute?",
			scene, "AND", [3]string{"OR", "XOR", "NAND"}, 0.45))
	}

	return qs
}

// randomCircuit builds a deterministic pseudo-random combinational
// circuit over A, B, C with the requested depth, output net F.
func randomCircuit(seed string, depth int) *Netlist {
	r := rng.NewStream("digital-circuit", seed)
	kinds := [...]GateKind{GateAnd, GateOr, GateNand, GateNor, GateXor}
	n := NewNetlist()
	level := []string{"A", "B", "C"}
	gi := 0
	for d := 1; d <= depth; d++ {
		width := 2
		if d == depth {
			width = 1
		}
		next := make([]string, 0, width+1)
		for w := 0; w < width; w++ {
			gi++
			out := "F"
			if d != depth {
				out = "n" + strconv.Itoa(gi)
			}
			k := kinds[r.IntN(len(kinds))]
			a := level[r.IntN(len(level))]
			b := level[r.IntN(len(level))]
			if b == a {
				b = level[(dataset.IndexOf(level, a)+1)%len(level)]
			}
			n.AddGate(k, "G"+strconv.Itoa(gi), out, a, b)
			next = append(next, out)
		}
		// Keep one input visible to deeper levels for variety.
		next = append(next, level[r.IntN(len(level))])
		level = next
	}
	return n
}

// randomMinterms picks count distinct minterms over n variables.
func randomMinterms(seed string, vars, count int) []int {
	r := rng.NewStream("digital-minterms", seed)
	ms := r.Perm(1 << vars)[:count]
	dataset.SortInts(ms)
	return ms
}

// expressionChoices returns the golden option "lhs = SOP", the minimal
// sum of products of minterms over vars, and three plausible but
// non-equivalent distractors: each flips one or two rows of the truth
// table and re-minimises, so the distractors look syntactically
// similar to the golden answer — the property §III-B1 demands of
// answer options. A flip that restores the original rows renders the
// golden SOP again, so the string checks alone reject equivalent
// candidates.
func expressionChoices(seed string, vars []string, minterms []int, lhs string) (golden string, others [3]string) {
	var q qm
	rows := minimizeRows(vars, minterms, nil, nil)
	size := len(rows)
	buf := append(make([]byte, 0, 64), lhs...)
	buf = append(buf, " = "...)
	prefix := len(buf)
	buf = q.appendSOP(buf, q.minimize(vars, rows), size)
	golden = string(buf)
	r := rng.NewStream("digital-distract", seed)
	cand := make([]uint8, size)
	for i := 0; i < 3; {
		copy(cand, rows)
		flips := 1 + r.IntN(2)
		for f := 0; f < flips; f++ {
			cand[r.IntN(size)] ^= rowOn
		}
		on := q.minimize(vars, cand)
		if on == 0 || on == size {
			continue
		}
		buf = q.appendSOP(buf[:prefix], on, size)
		if string(buf) == golden || string(buf) == others[0] || string(buf) == others[1] {
			continue
		}
		others[i] = string(buf)
		i++
	}
	return golden, others
}

// gateValueAnswer evaluates the two-gate network with A, B fixed and C
// free, classifying F as "0", "1", "C" or "C'".
func gateValueAnswer(n *Netlist, a, b bool) string {
	eval := func(c bool) bool {
		v, err := n.Eval(map[string]bool{"A": a, "B": b, "C": c}, nil)
		if err != nil {
			panic(err)
		}
		return v["F"]
	}
	f0, f1 := eval(false), eval(true)
	switch {
	case !f0 && !f1:
		return "0"
	case f0 && f1:
		return "1"
	case !f0 && f1:
		return "C"
	default:
		return "C'"
	}
}

func recognitionQuestion(id string, n *Netlist, name string, others [3]string, prompt string) *dataset.Question {
	scene := CircuitScene(n, "Mystery circuit", nil)
	return dataset.NewMC(id, dataset.Digital, "recognition", prompt, scene, name, others, 0.4)
}

func halfAdderNetlist() *Netlist {
	return NewNetlist().
		AddGate(GateXor, "G1", "S", "A", "B").
		AddGate(GateAnd, "G2", "Cout", "A", "B")
}

func fullAdderNetlist() *Netlist {
	return NewNetlist().
		AddGate(GateXor, "G1", "p", "A", "B").
		AddGate(GateXor, "G2", "S", "p", "Cin").
		AddGate(GateAnd, "G3", "g", "A", "B").
		AddGate(GateAnd, "G4", "h", "p", "Cin").
		AddGate(GateOr, "G5", "Cout", "g", "h")
}

// nandNandNetlist converts an SOP expression into a two-level NAND-NAND
// structure (one NAND per product term, one output NAND).
func nandNandNetlist(sop Expr, vars []string) *Netlist {
	n := NewNetlist()
	terms := sopTerms(sop)
	var mids []string
	for i, t := range terms {
		mid := fmt.Sprintf("t%d", i)
		lits := productLiterals(t)
		ins := make([]string, 0, len(lits))
		for _, l := range lits {
			if l.negated {
				inv := l.name + "n"
				n.AddGate(GateNot, "INV"+l.name, inv, l.name)
				ins = append(ins, inv)
			} else {
				ins = append(ins, l.name)
			}
		}
		if len(ins) == 1 {
			ins = append(ins, ins[0])
		}
		n.AddGate(GateNand, fmt.Sprintf("N%d", i), mid, ins...)
		mids = append(mids, mid)
	}
	if len(mids) == 1 {
		mids = append(mids, mids[0])
	}
	n.AddGate(GateNand, "NOUT", "F", mids...)
	return n
}

type literal struct {
	name    string
	negated bool
}

func sopTerms(e Expr) []Expr {
	if or, ok := e.(*Or); ok {
		return or.Xs
	}
	return []Expr{e}
}

func productLiterals(e Expr) []literal {
	switch t := e.(type) {
	case *And:
		var out []literal
		for _, x := range t.Xs {
			out = append(out, productLiterals(x)...)
		}
		return out
	case *Not:
		if v, ok := t.X.(*Var); ok {
			return []literal{{name: v.Name, negated: true}}
		}
	case *Var:
		return []literal{{name: t.Name}}
	}
	return nil
}

// muxFunction computes F(S1,S0,C) of a 4:1 mux whose data inputs carry
// the strings "0", "1", "C" or "C'".
func muxFunction(data [4]string) Expr {
	sel := [][2]Expr{
		{&Not{X: &Var{Name: "S1"}}, &Not{X: &Var{Name: "S0"}}},
		{&Not{X: &Var{Name: "S1"}}, &Var{Name: "S0"}},
		{&Var{Name: "S1"}, &Not{X: &Var{Name: "S0"}}},
		{&Var{Name: "S1"}, &Var{Name: "S0"}},
	}
	var terms []Expr
	for i, d := range data {
		var dExpr Expr
		switch d {
		case "0":
			continue
		case "1":
			dExpr = nil
		case "C":
			dExpr = &Var{Name: "C"}
		case "C'":
			dExpr = &Not{X: &Var{Name: "C"}}
		}
		parts := []Expr{sel[i][0], sel[i][1]}
		if dExpr != nil {
			parts = append(parts, dExpr)
		}
		terms = append(terms, &And{Xs: parts})
	}
	if len(terms) == 0 {
		return &Const{Value: false}
	}
	var full Expr
	if len(terms) == 1 {
		full = terms[0]
	} else {
		full = &Or{Xs: terms}
	}
	vars := Vars(full)
	return Minimize(vars, Minterms(full, vars), nil)
}

func muxScene(data [4]string) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, "4:1 multiplexer")
	s.Add(visual.Element{
		Type: visual.ElemBox, Name: "mux", Label: "4:1 MUX",
		X: 260, Y: 120, X2: 380, Y2: 320, Critical: true,
	})
	for i, d := range data {
		y := 140.0 + float64(i)*45
		s.Add(visual.Element{
			Type: visual.ElemLabel, Name: fmt.Sprintf("d%d", i),
			Label: fmt.Sprintf("D%d=%s", i, d), X: 150, Y: y,
			Salience: 0.7, Critical: true,
		})
		s.Add(visual.Element{
			Type: visual.ElemWire, Name: fmt.Sprintf("wd%d", i),
			X: 215, Y: y + 6, X2: 260, Y2: y + 6,
		})
	}
	s.Add(visual.Element{
		Type: visual.ElemLabel, Name: "sel", Label: "S1 S0", X: 290, Y: 350, Salience: 0.8,
	})
	s.Add(visual.Element{
		Type: visual.ElemArrow, Name: "out", X: 380, Y: 220, X2: 450, Y2: 220, Label: "F",
	})
	return s
}

func counterScene(bits int, title, kind string) *visual.Scene {
	labels := make([]string, bits)
	for i := range labels {
		labels[i] = "FF" + strconv.Itoa(bits-1-i)
	}
	s := BlockChainScene(labels, title, true)
	s.Kind = visual.KindSchematic
	// Feedback wire from last to first marks the counter style.
	s.Add(visual.Element{
		Type: visual.ElemArrow, Name: "feedback", Label: kind,
		X: 50 + float64(bits-1)*120 + 80, Y: 196,
		X2: 50, Y2: 196, Salience: 0.8, Critical: true,
	})
	return s
}

func decoderScene(bits, input int) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, "3-to-8 decoder")
	s.Add(visual.Element{
		Type: visual.ElemBox, Name: "dec", Label: "DEC 3:8",
		X: 240, Y: 100, X2: 360, Y2: 360, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemValue, Name: "addr",
		Label: fmt.Sprintf("A2 A1 A0 = %s", BitString(input, bits)),
		X:     60, Y: 220, Salience: 0.65, Critical: true,
	})
	for i := 0; i < 1<<bits; i++ {
		s.Add(visual.Element{
			Type: visual.ElemLabel, Name: fmt.Sprintf("y%d", i),
			Label: fmt.Sprintf("Y%d", i), X: 380, Y: 110 + float64(i)*30,
		})
	}
	return s
}

func encoderScene(asserted []int) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, "8-to-3 priority encoder")
	s.Add(visual.Element{
		Type: visual.ElemBox, Name: "enc", Label: "PRI ENC 8:3",
		X: 260, Y: 100, X2: 400, Y2: 360, Critical: true,
	})
	on := make(map[int]bool)
	for _, a := range asserted {
		on[a] = true
	}
	for i := 0; i < 8; i++ {
		v := 0
		if on[i] {
			v = 1
		}
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: fmt.Sprintf("i%d", i),
			Label: fmt.Sprintf("I%d=%d", i, v), X: 170, Y: 110 + float64(i)*30,
			Salience: 0.65, Critical: on[i],
		})
	}
	return s
}

func adderScene(a, b int) *visual.Scene {
	s := visual.NewScene(visual.KindSchematic, "2-bit ripple-carry adder")
	for i := 0; i < 2; i++ {
		x := 200 + float64(i)*180
		s.Add(visual.Element{
			Type: visual.ElemBox, Name: fmt.Sprintf("fa%d", i), Label: "FA",
			X: x, Y: 160, X2: x + 90, Y2: 240, Critical: true,
		})
	}
	s.Add(visual.Element{
		Type: visual.ElemValue, Name: "ops",
		Label: fmt.Sprintf("A=%s B=%s", BitString(a, 2), BitString(b, 2)),
		X:     60, Y: 80, Salience: 0.65, Critical: true,
	})
	s.Add(visual.Element{
		Type: visual.ElemArrow, Name: "carry", X: 290, Y: 200, X2: 380, Y2: 200, Label: "c",
	})
	return s
}

func dffTimingScene() *visual.Scene {
	// Bit-per-half-cycle waveforms: CLK rises at samples 1 and 5; D is 1
	// at the first rising edge and 0 at the second.
	s := visual.NewWaveformScene("D flip-flop timing", map[string][]int{
		"CLK": {0, 1, 1, 0, 0, 1, 1, 0},
		"D":   {1, 1, 0, 0, 0, 0, 1, 1},
	}, []string{"CLK", "D"})
	return s
}

func joinVars(vars []string) string {
	out := ""
	for i, v := range vars {
		if i > 0 {
			out += ", "
		}
		out += v
	}
	return out
}
