package analog

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// ExtraAt builds the i-th extended Analog Design question of fold seed,
// cycling through the package's templates; the "xa-" ID prefix keeps
// it clear of the fixed 142 questions.
func ExtraAt(seed string, i int) *dataset.Question {
	var key [32]byte
	id, inst := dataset.ExtraID("xa-", seed, i), string(dataset.AppendExtraInst(key[:0], seed, i))
	switch i % 5 {
	case 0:
		return extraLadder(id, inst)
	case 1:
		return extraDivider(id, inst)
	case 2:
		return extraCSGain(id, inst)
	case 3:
		return extraRCCutoff(id, inst)
	default:
		return extraClosedLoop(id, inst)
	}
}

// resistorE24 picks a plausible resistor value.
func resistorE24(r *rng.Stream) float64 {
	bases := [...]float64{1.0, 1.5, 2.2, 3.3, 4.7, 6.8}
	scales := [...]float64{100, 1000, 10000}
	return bases[r.IntN(len(bases))] * scales[r.IntN(len(scales))]
}

func extraLadder(id, inst string) *dataset.Question {
	r := rng.NewStream("analog-extra-ladder", inst)
	r1, r2, r3 := resistorE24(&r), resistorE24(&r), resistorE24(&r)
	c := NewCircuit()
	c.R("R1", "a", "b", r1).R("R2", "b", Ground, r2).R("R3", "b", Ground, r3)
	req, err := c.EquivalentResistance("a", Ground)
	if err != nil {
		panic(err)
	}
	format := func(v float64) string { return FormatSI(v, "Ohm") }
	scene := ResistorNetworkScene("Resistor network", "",
		[]string{"R1=" + format(r1), "R2=" + format(r2), "R3=" + format(r3)})
	return dataset.NewMCNumeric(id, dataset.Analog, "equivalent-resistance",
		"For the resistor network in the figure (R1 in series with the parallel pair R2, "+
			"R3), what is the equivalent resistance seen from terminal a to ground?",
		scene, req, "Ohm", 0.02, format(req), NumericDistractors(req, format), 0.45)
}

func extraDivider(id, inst string) *dataset.Question {
	r := rng.NewStream("analog-extra-div", inst)
	vs := []float64{3.3, 5, 9, 12}[r.IntN(4)]
	r1, r2, rl := resistorE24(&r), resistorE24(&r), resistorE24(&r)
	c := NewCircuit()
	c.V("Vs", "in", Ground, vs).R("R1", "in", "mid", r1).
		R("R2", "mid", Ground, r2).R("RL", "mid", Ground, rl)
	sol, err := c.SolveDC()
	if err != nil {
		panic(err)
	}
	vl := real(sol.VoltageAt("mid"))
	format := func(v float64) string { return FormatPlain(round3(v), "V") }
	scene := ResistorNetworkScene("Loaded voltage divider", "Vs",
		[]string{fmt.Sprintf("Vs=%g V", vs), "R1=" + FormatSI(r1, "Ohm"),
			"R2=" + FormatSI(r2, "Ohm"), "RL=" + FormatSI(rl, "Ohm")})
	return dataset.NewMCNumeric(id, dataset.Analog, "voltage-divider",
		"Given the source and resistor values annotated in the figure, determine the "+
			"voltage across the load resistor RL. Answer in units of V.",
		scene, vl, "V", 0.02, format(vl), NumericDistractors(vl, format), 0.5)
}

func extraCSGain(id, inst string) *dataset.Question {
	r := rng.NewStream("analog-extra-cs", inst)
	gm := float64(1+r.IntN(8)) * 1e-3
	rd := resistorE24(&r)
	m := MOSFET{Gm: gm, Ro: math.Inf(1)}
	gain := CommonSourceGain(m, rd)
	format := func(v float64) string { return FormatPlain(round3(v), "V/V") }
	scene := AmplifierScene("Common-source stage", "common-source amplifier",
		[]string{"gm=" + FormatSI(gm, "S"), "RD=" + FormatSI(rd, "Ohm")})
	return dataset.NewMCNumeric(id, dataset.Analog, "cs-gain",
		"The common-source amplifier in the figure is biased in saturation with the "+
			"parameters annotated (neglect channel-length modulation). What is its "+
			"small-signal voltage gain vout/vin?",
		scene, gain, "V/V", 0.02, format(gain), NumericDistractors(gain, format), 0.5)
}

func extraRCCutoff(id, inst string) *dataset.Question {
	r := rng.NewStream("analog-extra-rc", inst)
	res := resistorE24(&r)
	cap := []float64{1e-9, 10e-9, 100e-9, 1e-6}[r.IntN(4)]
	fc := RCLowPassCutoffHz(res, cap)
	format := func(v float64) string { return FormatSI(v, "Hz") }
	scene := ResistorNetworkScene("First-order RC low-pass filter", "Vin",
		[]string{"R=" + FormatSI(res, "Ohm"), "C=" + FormatSI(cap, "F")})
	return dataset.NewMCNumeric(id, dataset.Analog, "rc-cutoff",
		"For the first-order RC low-pass filter in the figure, what is the -3 dB cutoff "+
			"frequency?",
		scene, fc, "Hz", 0.03, format(fc), NumericDistractors(fc, format), 0.45)
}

func extraClosedLoop(id, inst string) *dataset.Question {
	r := rng.NewStream("analog-extra-cl", inst)
	a0 := []float64{1e3, 1e4, 1e5}[r.IntN(3)]
	beta := []float64{0.001, 0.01, 0.1}[r.IntN(3)]
	acl := ClosedLoopGain(a0, beta)
	format := func(v float64) string { return FormatPlain(round3(v), "V/V") }
	scene := BlockDiagramScene("Negative feedback loop",
		[]string{"A", "OUTPUT"},
		[]string{fmt.Sprintf("A = %g", a0), fmt.Sprintf("beta = %g", beta),
			"feedback subtracts at input"})
	return dataset.NewMCNumeric(id, dataset.Analog, "closed-loop",
		"The negative-feedback system in the figure has forward gain A and feedback "+
			"factor beta as annotated. What is the closed-loop gain A/(1+A*beta)?",
		scene, acl, "V/V", 0.02, format(acl), NumericDistractors(acl, format), 0.5)
}
