package manuf

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/visual"
)

// ExtraAt builds the i-th extended Manufacture question of fold seed,
// cycling through the package's templates; the "xm-" ID prefix keeps
// it clear of the fixed 142 questions.
func ExtraAt(seed string, i int) *dataset.Question {
	inst := fmt.Sprintf("%s-%d", seed, i)
	id := fmt.Sprintf("xm-%s-%02d", seed, i)
	switch i % 6 {
	case 0:
		return extraEtchTime(id, inst)
	case 1:
		return extraRayleigh(id, inst)
	case 2:
		return extraYield(id, inst)
	case 3:
		return extraDOF(id, inst)
	case 4:
		return extraAerialCD(id, inst)
	default:
		return extraMEEF(id, inst)
	}
}

func extraEtchTime(id, inst string) *dataset.Question {
	r := rng.New("manuf-extra-etch", inst)
	thickness := float64(200 + 100*r.IntN(6))
	over := float64(5+5*r.IntN(4)) / 100
	rate := float64(50 + 50*r.IntN(4))
	p := EtchProcess{Name: "wet etch", Rate: rate}
	tm := p.TimeToClear(thickness, over)
	scene := visual.NewAnnotatedFigure(visual.KindFigure, "Patterned film cross-section",
		"photoresist opening over the target film",
		[]string{fmt.Sprintf("film thickness: %g nm", thickness),
			fmt.Sprintf("etch rate: %g nm/min", rate),
			fmt.Sprintf("required over-etch: %g%%", over*100)})
	return dataset.NewSANumber(id, dataset.Manufacture, "etch-time",
		fmt.Sprintf("The film in the figure is %g nm thick and etches at %g nm/min. "+
			"How long must the wafer stay in the etchant to record a %g%% over-etch? "+
			"Answer in minutes.", thickness, rate, over*100),
		scene, tm, "min", 0.02, 0.6)
}

func extraRayleigh(id, inst string) *dataset.Question {
	r := rng.New("manuf-extra-litho", inst)
	sys := []LithoSystem{ArF(), KrF(), EUV()}[r.IntN(3)]
	res := sys.Resolution()
	scene := visual.NewBlockDiagram(visual.KindDiagram, "Projection lithography column",
		[]string{"SOURCE", "MASK", "LENS", "WAFER"},
		[]string{fmt.Sprintf("lambda = %g nm", sys.WavelengthNM),
			fmt.Sprintf("NA = %g", sys.NA),
			fmt.Sprintf("k1 = %g", sys.K1)})
	return dataset.NewSANumber(id, dataset.Manufacture, "rayleigh",
		"The scanner in the figure operates with the wavelength, NA and k1 annotated. "+
			"Per the Rayleigh criterion R = k1*lambda/NA, what minimum feature size can it "+
			"resolve, in nm?",
		scene, res, "nm", 0.02, 0.55)
}

func extraYield(id, inst string) *dataset.Question {
	r := rng.New("manuf-extra-yield", inst)
	area := float64(1+r.IntN(4)) * 0.5
	density := float64(1+r.IntN(6)) * 0.2
	y := PoissonYield(area, density) * 100
	scene := visual.NewTableScene(visual.KindMixed, "Die and defect data",
		[]string{"parameter", "value"},
		[][]string{
			{"die area", fmt.Sprintf("%g cm2", area)},
			{"defect density", fmt.Sprintf("%g /cm2", density)},
			{"model", "Poisson"},
		}, map[int]bool{1: true})
	return dataset.NewSANumber(id, dataset.Manufacture, "poisson-yield",
		"Using the Poisson yield model Y = exp(-A*D) with the die area and defect "+
			"density tabulated in the figure, what die yield results, in percent?",
		scene, y, "%", 0.02, 0.55)
}

func extraDOF(id, inst string) *dataset.Question {
	r := rng.New("manuf-extra-dof", inst)
	sys := []LithoSystem{ArF(), KrF()}[r.IntN(2)]
	dof := sys.DepthOfFocus()
	scene := visual.NewBlockDiagram(visual.KindDiagram, "Focus budget",
		[]string{"LENS", "FOCAL PLANE", "WAFER TOPO"},
		[]string{fmt.Sprintf("lambda = %g nm", sys.WavelengthNM),
			fmt.Sprintf("NA = %g", sys.NA),
			fmt.Sprintf("k2 = %g", sys.K2)})
	return dataset.NewSANumber(id, dataset.Manufacture, "dof",
		"For the scanner in the figure, compute the Rayleigh depth of focus "+
			"DOF = k2*lambda/NA^2, in nm.",
		scene, dof, "nm", 0.02, 0.6)
}

func extraAerialCD(id, inst string) *dataset.Question {
	r := rng.New("manuf-extra-aerial", inst)
	sim := NewAerialSimulator(KrF())
	cd := float64(200 + 20*r.IntN(5))
	pitch := cd * float64(2+r.IntN(3))
	features, x0 := LineInGrating(cd, pitch, 5)
	printed := sim.PrintedCD(features, x0)
	scene := visual.NewAnnotatedFigure(visual.KindFigure, "Aerial image of a line grating",
		"five-line grating with the centre line's image profile plotted",
		[]string{fmt.Sprintf("drawn CD: %g nm, pitch: %g nm", cd, pitch),
			"KrF scanner: lambda 248 nm, NA 0.8",
			"Gaussian PSF (sigma = 0.61*lambda/NA / 2.2), resist threshold 0.5"})
	return dataset.NewSANumber(id, dataset.Manufacture, "aerial-cd",
		fmt.Sprintf("The aerial-image simulation in the figure exposes a five-line "+
			"grating (drawn CD %g nm at %g nm pitch) on the KrF tool described. Under the "+
			"threshold resist model, what linewidth does the centre line print, in nm?",
			cd, pitch),
		scene, printed, "nm", 0.04, 0.85)
}

func extraMEEF(id, inst string) *dataset.Question {
	r := rng.New("manuf-extra-meef", inst)
	maskErr := float64(2 + r.IntN(8))
	meef := float64(1 + r.IntN(4))
	delta := MaskErrorFactor(maskErr, meef, 4)
	scene := layoutSceneManuf("Mask vs wafer CD",
		[]string{fmt.Sprintf("mask CD error: %g nm (at mask scale)", maskErr),
			fmt.Sprintf("MEEF = %g", meef), "4x reduction scanner"})
	return dataset.NewSANumber(id, dataset.Manufacture, "meef",
		"A mask feature in the figure carries the CD error annotated. With the MEEF "+
			"and reduction ratio shown, what CD error appears on the wafer, in nm?",
		scene, delta, "nm", 0.02, 0.6)
}
