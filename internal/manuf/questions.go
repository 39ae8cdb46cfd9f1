package manuf

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// Generate produces the 20 Manufacture questions (6 multiple choice and
// 14 short answer, per Table I — the category the paper notes is
// SA-heavy and reasoning-heavy): 4 figures, 4 structures, 4 layouts,
// 3 diagrams, 2 flow charts, 2 mixed and 1 schematic. Golden answers
// come from the process-physics engines in this package.
func Generate() []*dataset.Question {
	var qs []*dataset.Question
	add := func(q *dataset.Question) { qs = append(qs, q) }

	// --- Figures (m01..m04) ------------------------------------------------

	// m01: RET recognition — the paper's own sample question ("What is
	// the lithography resolution enhancement technique depicted in the
	// figure?").
	{
		scene := visual.NewAnnotatedFigure(visual.KindFigure, "Mask pattern detail",
			"drawn rectangle decorated with corner serifs, hammerheads and edge jogs",
			[]string{OPC.Signature()})
		add(dataset.NewMC("m01", dataset.Manufacture, "ret-recognition",
			"What is the lithography resolution enhancement technique depicted in the figure?",
			scene, OPC.String(),
			[3]string{PSM.String(), OAI.String(), MPT.String()}, 0.65))
	}
	// m02: wafer-map defect classification.
	{
		fails := [][2]float64{{-0.6, -0.55}, {-0.3, -0.28}, {0.0, 0.02}, {0.3, 0.31}, {0.6, 0.58}}
		class := ClassifyWaferMap(fails)
		scene := visual.NewAnnotatedFigure(visual.KindFigure, "Wafer bin map",
			"failing dies form a thin straight line across the wafer",
			[]string{"fail coordinates lie on a diagonal line"})
		add(dataset.NewSAPhrase("m02", dataset.Manufacture, "wafer-map",
			"The wafer map in the figure marks failing dies. Based on their spatial "+
				"signature, what class of defect caused them?",
			scene, class.String(),
			[]string{"scratch", "a scratch", "mechanical scratch", "scratch defect"}, 0.6))
	}
	// m03: the paper's BOE over-etch worked example.
	{
		p := BOE5to1()
		const thickness, over = 500.0, 0.10
		t := p.TimeToClear(thickness, over)
		scene := visual.NewAnnotatedFigure(visual.KindFigure, "Si/SiO2 substrate with patterned resist",
			"photoresist opening over a 500 nm SiO2 film on Si",
			[]string{"SiO2 thickness: 500 nm", "5:1 BOE etch rate: 100 nm/min (isotropic)"})
		add(dataset.NewSANumber("m03", dataset.Manufacture, "boe-overetch",
			"Assume 5:1 BOE (buffered HF) etches SiO2 isotropically at 100 nm/min. For the "+
				"structure in the figure, how long should this wafer be placed in 5:1 BOE etchant "+
				"to record a 10% over-etch? Answer in minutes.",
			scene, t, "min", 0.02, 0.7))
	}
	// m04: RIE selectivity substrate loss.
	{
		p := RIEOxide()
		overMinutes := 0.5
		loss := p.SubstrateLoss(overMinutes)
		scene := visual.NewAnnotatedFigure(visual.KindFigure, "RIE over-etch cross-section",
			"oxide cleared; silicon exposed during over-etch",
			[]string{"RIE rate: 200 nm/min on SiO2", "SiO2:Si selectivity 15:1",
				"over-etch duration: 0.5 min"})
		add(dataset.NewSANumber("m04", dataset.Manufacture, "rie-selectivity",
			"The RIE step in the figure etches SiO2 at 200 nm/min with a SiO2:Si "+
				"selectivity of 15:1. During the 0.5 minute over-etch, how many nm of the "+
				"underlying silicon are consumed?",
			scene, loss, "nm", 0.02, 0.75))
	}

	// --- Structures (m05..m08) -----------------------------------------------

	// m05: isotropic undercut.
	{
		p := BOE5to1()
		minutes := 5.5
		undercut := p.LateralEtch(minutes)
		scene := visual.NewAnnotatedFigure(visual.KindStructure, "Wet-etched cross-section",
			"etched cavity curves under the resist edge",
			[]string{"isotropic etch at 100 nm/min", "etch time: 5.5 min"})
		add(dataset.NewSANumber("m05", dataset.Manufacture, "undercut",
			"The isotropic wet etch shown in the cross-section proceeds at the annotated "+
				"rate for 5.5 minutes. How far does the etch undercut the resist edge laterally, "+
				"in nm?",
			scene, undercut, "nm", 0.02, 0.6))
	}
	// m06: anisotropic profile recognition (MC).
	{
		scene := visual.NewAnnotatedFigure(visual.KindStructure, "Two etch profiles",
			"profile A has vertical sidewalls; profile B curves under the mask",
			[]string{"A: straight vertical sidewalls", "B: rounded undercutting sidewalls"})
		add(dataset.NewMC("m06", dataset.Manufacture, "etch-profile",
			"Two etched cross-sections are compared in the figure. Which statement "+
				"correctly matches profile to process?",
			scene, "A is anisotropic dry (RIE) etch; B is isotropic wet etch",
			[3]string{"A is isotropic wet etch; B is anisotropic dry etch",
				"both profiles come from the same wet etch at different temperatures",
				"A is lift-off; B is damascene"}, 0.55))
	}
	// m07: junction depth.
	{
		step := DiffusionStep{D: 1e-13, TimeS: 3600}
		cs, cb := 1e20, 1e16
		xjCM := step.JunctionDepthConstantSource(cs, cb)
		xjUM := xjCM * 1e4
		scene := visual.NewAnnotatedFigure(visual.KindStructure, "Dopant profile after predeposition",
			"erfc-shaped concentration falling from the surface",
			[]string{"Cs = 1e20 /cm3 (constant source)", "background: 1e16 /cm3",
				"D = 1e-13 cm2/s", "t = 1 hour"})
		add(dataset.NewSANumber("m07", dataset.Manufacture, "junction-depth",
			"The constant-source diffusion in the figure runs with the parameters "+
				"annotated. At what depth does the dopant concentration fall to the background "+
				"level (the junction depth)? Answer in um.",
			scene, xjUM, "um", 0.05, 0.85))
	}
	// m08: Deal–Grove oxide growth.
	{
		x := OxideGrowthDealGrove(0.5, 0.2, 0, 2) // B/A=0.5 um/h, B=0.2 um^2/h, 2h
		scene := visual.NewAnnotatedFigure(visual.KindStructure, "Thermal oxidation cross-section",
			"SiO2 film growing into and above the silicon surface",
			[]string{"Deal-Grove: B/A = 0.5 um/h, B = 0.2 um2/h",
				"no initial oxide", "oxidation time: 2 h"})
		add(dataset.NewSANumber("m08", dataset.Manufacture, "deal-grove",
			"Using the Deal-Grove model with the rate constants annotated in the figure "+
				"and no initial oxide, what oxide thickness grows in 2 hours? Answer in um.",
			scene, x, "um", 0.03, 0.85))
	}

	// --- Layouts (m09..m12) ----------------------------------------------------

	// m09: multiple patterning split count.
	{
		n := PitchSplit(40, 76)
		scene := layoutSceneManuf("Dense metal layer to decompose",
			[]string{"target pitch: 40 nm", "single-exposure pitch limit: 76 nm"})
		add(dataset.NewSANumber("m09", dataset.Manufacture, "pitch-split",
			"The metal layer in the figure needs the target pitch annotated, but the "+
				"scanner can only print the single-exposure pitch shown. Into how many "+
				"interleaved masks must the layer be decomposed?",
			scene, float64(n), "masks", 0, 0.6))
	}
	// m10: test-structure recognition (MC).
	{
		scene := layoutSceneManuf("Back-end test structure",
			[]string{"one long metal line meandering back and forth across the die"})
		add(dataset.NewMC("m10", dataset.Manufacture, "test-structure",
			"The layout in the figure shows a single very long metal line folded into a "+
				"meander. What is this test structure used to measure?",
			scene, "metal line continuity and resistance (open-circuit defect monitor)",
			[3]string{"gate oxide breakdown voltage", "contact chain resistance only",
				"transistor threshold voltage matching"}, 0.6))
	}
	// m11: MEEF.
	{
		delta := MaskErrorFactor(4, 2, 4)
		scene := layoutSceneManuf("Mask vs wafer CD",
			[]string{"mask CD error: 4 nm (at mask scale)", "MEEF = 2", "4x reduction scanner"})
		add(dataset.NewSANumber("m11", dataset.Manufacture, "meef",
			"A mask feature in the figure carries the CD error annotated. With the MEEF "+
				"and reduction ratio shown, what CD error appears on the wafer, in nm?",
			scene, delta, "nm", 0.02, 0.7))
	}
	// m12: sheet resistance.
	{
		rs := SheetResistance(1.7e-6, 2e-5) // copper, 200 nm film
		scene := layoutSceneManuf("Metal film test pad",
			[]string{"resistivity: 1.7e-6 Ohm*cm", "film thickness: 200 nm"})
		add(dataset.NewSANumber("m12", dataset.Manufacture, "sheet-resistance",
			"For the metal film in the figure with the resistivity and thickness "+
				"annotated, what is the sheet resistance in Ohm per square?",
			scene, rs, "Ohm/sq", 0.02, 0.65))
	}

	// --- Diagrams (m13..m15) -----------------------------------------------------

	// m13: Rayleigh resolution.
	{
		sys := ArF()
		res := sys.Resolution()
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Projection lithography column",
			[]string{"SOURCE", "MASK", "LENS", "WAFER"},
			[]string{"lambda = 193 nm", "NA = 1.35", "k1 = 0.3"})
		add(dataset.NewSANumber("m13", dataset.Manufacture, "rayleigh",
			"The immersion scanner in the figure operates with the wavelength, NA and k1 "+
				"annotated. Per the Rayleigh criterion R = k1*lambda/NA, what minimum feature "+
				"size can it resolve, in nm?",
			scene, res, "nm", 0.02, 0.6))
	}
	// m14: depth of focus.
	{
		sys := KrF()
		dof := sys.DepthOfFocus()
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Focus budget",
			[]string{"LENS", "FOCAL PLANE", "WAFER TOPO"},
			[]string{"lambda = 248 nm", "NA = 0.8", "k2 = 0.5"})
		add(dataset.NewSANumber("m14", dataset.Manufacture, "dof",
			"For the scanner in the figure, compute the Rayleigh depth of focus "+
				"DOF = k2*lambda/NA^2, in nm.",
			scene, dof, "nm", 0.02, 0.65))
	}
	// m15: EUV wavelength (MC).
	{
		scene := visual.NewBlockDiagram(visual.KindDiagram, "EUV exposure tool",
			[]string{"PLASMA SOURCE", "MIRRORS", "REFLECTIVE MASK", "WAFER"},
			[]string{"all-reflective optics in vacuum"})
		add(dataset.NewMC("m15", dataset.Manufacture, "euv",
			"The all-reflective exposure tool in the figure is an EUV scanner. What "+
				"wavelength does it expose with?",
			scene, "13.5 nm",
			[3]string{"193 nm", "248 nm", "157 nm"}, 0.45))
	}

	// --- Flow charts (m16, m17) -----------------------------------------------------

	// m16: patterning loop order (MC).
	{
		scene := visual.NewBlockDiagram(visual.KindFlow, "Patterning loop",
			[]string{"DEPOSIT", "SPIN RESIST", "EXPOSE", "DEVELOP", "?", "STRIP"},
			[]string{"the boxed step transfers the resist pattern into the film"})
		add(dataset.NewMC("m16", dataset.Manufacture, "pattern-flow",
			"In the patterning loop of the figure, which step fills the box between "+
				"develop and resist strip?",
			scene, "etch",
			[3]string{"chemical-mechanical polish", "ion implantation", "anneal"}, 0.4))
	}
	// m17: develop step identification.
	{
		scene := visual.NewBlockDiagram(visual.KindFlow, "Photolithography sequence",
			[]string{"SPIN COAT", "SOFT BAKE", "EXPOSE", "?", "HARD BAKE"},
			[]string{"the boxed step dissolves the exposed (positive) resist"})
		add(dataset.NewSAPhrase("m17", dataset.Manufacture, "develop-step",
			"The photolithography flow in the figure is missing one step between exposure "+
				"and hard bake — the step that dissolves the exposed regions of a positive "+
				"resist. What is this step called?",
			scene, "develop",
			[]string{"development", "developing", "resist develop", "resist development"}, 0.45))
	}

	// --- Mixed (m18, m19) ---------------------------------------------------------

	// m18: Poisson yield.
	{
		y := PoissonYield(1.0, 0.5) * 100
		scene := visual.NewTableScene(visual.KindMixed, "Die and defect data",
			[]string{"parameter", "value"},
			[][]string{{"die area", "1.0 cm2"}, {"defect density", "0.5 /cm2"},
				{"model", "Poisson"}}, map[int]bool{1: true})
		add(dataset.NewSANumber("m18", dataset.Manufacture, "poisson-yield",
			"Using the Poisson yield model Y = exp(-A*D) with the die area and defect "+
				"density tabulated in the figure, what die yield results, in percent?",
			scene, y, "%", 0.02, 0.6))
	}
	// m19: good die per wafer.
	{
		good := GoodDiePerWafer(300, 100, 0.2)
		scene := visual.NewTableScene(visual.KindMixed, "Wafer economics",
			[]string{"parameter", "value"},
			[][]string{{"wafer diameter", "300 mm"}, {"die area", "100 mm2"},
				{"defect density", "0.2 /cm2"}, {"yield model", "Poisson"}},
			map[int]bool{1: true})
		// m19 carries the benchmark's longest prompt (Table I reports
		// prompts up to 370 tokens): a full industrial costing scenario.
		add(dataset.NewSANumber("m19", dataset.Manufacture, "good-die",
			"A fabless design house is negotiating wafer pricing with its foundry for a "+
				"new networking ASIC and needs an internal estimate of sellable units per wafer "+
				"before the meeting. The product team has frozen the die at the area listed in "+
				"the figure after the last floorplan iteration, and the process engineers have "+
				"shared the current baseline defect density for the target technology, measured "+
				"across the last three months of risk production lots and summarized in the "+
				"same table. Manufacturing will run the standard wafer diameter noted there; "+
				"edge dies that do not fit completely on the wafer cannot be sold and must be "+
				"excluded up front, so use the edge-corrected gross-die estimate "+
				"N = pi*(d/2)^2/A - pi*d/sqrt(2*A), where d is the wafer diameter and A the die "+
				"area, rather than a naive area ratio. Assume defects are randomly distributed "+
				"across the wafer with no clustering, so the Poisson yield model Y = exp(-A*D) "+
				"applies. Ignore yield learning over the ramp, test escapes and assembly "+
				"losses: purchasing only wants the silicon-limited number. Convert the die "+
				"area into the units the defect density is quoted in before applying the "+
				"exponential. Under these assumptions, how many good dies does a wafer "+
				"described in the figure deliver? Round down.",
			scene, float64(good), "dies", 0.02, 0.9))
	}

	// --- Schematic (m20) -------------------------------------------------------------

	{
		scene := visual.NewBlockDiagram(visual.KindSchematic, "Deposition chamber",
			[]string{"GAS INLET", "SHOWERHEAD", "PLASMA", "HEATED CHUCK"},
			[]string{"RF electrode energises the gas above the wafer"})
		add(dataset.NewMC("m20", dataset.Manufacture, "pecvd",
			"The deposition chamber in the figure feeds precursor gas through a "+
				"showerhead into an RF-driven plasma above a heated wafer chuck. What "+
				"deposition technique is this?",
			scene, "plasma-enhanced chemical vapor deposition (PECVD)",
			[3]string{"physical vapor deposition (sputtering)", "atomic layer deposition (thermal)",
				"molecular beam epitaxy"}, 0.55))
	}

	if len(qs) != 20 {
		panic(fmt.Sprintf("manuf: generated %d questions, want 20", len(qs)))
	}
	return qs
}

// layoutSceneManuf draws a simple patterned-layer layout with
// annotations.
func layoutSceneManuf(title string, annotations []string) *visual.Scene {
	const lines = 6
	s := visual.NewScene(visual.KindLayout, title).Grow(lines + len(annotations))
	// Scene attribute maps are read-only, so the lines share one.
	metal1 := map[string]string{"layer": "metal1"}
	for i := 0; i < lines; i++ {
		x := 80.0 + float64(i)*70
		s.Add(visual.Element{
			Type: visual.ElemRect, Name: "line" + strconv.Itoa(i),
			X: x, Y: 80, X2: x + 28, Y2: 300,
			Attrs: metal1,
		})
	}
	for i, a := range annotations {
		s.Add(visual.Element{
			Type: visual.ElemValue, Name: "ann" + strconv.Itoa(i), Label: a,
			X: 80, Y: 330 + float64(i)*24, Salience: 0.65, Critical: true,
		})
	}
	return s
}
