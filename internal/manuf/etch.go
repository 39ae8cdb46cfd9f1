// Package manuf implements the semiconductor-manufacturing substrate:
// etch-process timing (isotropic/anisotropic, selectivity, over-etch),
// Rayleigh lithography resolution and depth of focus, dopant diffusion
// profiles, and yield models. The Manufacture questions of the benchmark
// are generated from these engines.
package manuf

import "fmt"

// EtchProcess describes an etch step for a target film.
type EtchProcess struct {
	Name string
	// Rate is the vertical etch rate of the target film in nm/min.
	Rate float64
	// Selectivity is target:substrate etch-rate ratio (0 = infinite).
	Selectivity float64
	// Anisotropy in [0,1]: 0 = fully isotropic (lateral rate equals
	// vertical), 1 = fully anisotropic (no lateral etch).
	Anisotropy float64
}

// BOE5to1 is the paper's example wet etch: 5:1 buffered HF etching SiO2
// isotropically at 100 nm/min.
func BOE5to1() EtchProcess {
	return EtchProcess{Name: "5:1 BOE", Rate: 100, Anisotropy: 0}
}

// RIEOxide is the paper's example dry etch: 200 nm/min with 15:1
// SiO2:Si selectivity, fully anisotropic.
func RIEOxide() EtchProcess {
	return EtchProcess{Name: "RIE", Rate: 200, Selectivity: 15, Anisotropy: 1}
}

// TimeToClear returns the minutes to etch through a film of the given
// thickness (nm) with the specified over-etch fraction (0.1 = 10%):
// the paper's worked example ("how long should this wafer be placed in
// 5:1 BOE etchant to record a 10% over-etch?").
func (p EtchProcess) TimeToClear(thicknessNM, overEtch float64) float64 {
	if p.Rate <= 0 {
		return 0
	}
	return thicknessNM * (1 + overEtch) / p.Rate
}

// LateralEtch returns the undercut (nm) accumulated during an etch of
// the given duration: lateral rate = vertical rate * (1 - anisotropy).
func (p EtchProcess) LateralEtch(minutes float64) float64 {
	return p.Rate * (1 - p.Anisotropy) * minutes
}

// SubstrateLoss returns the substrate consumed (nm) during an over-etch
// of the given duration, per the process selectivity.
func (p EtchProcess) SubstrateLoss(overEtchMinutes float64) float64 {
	if p.Selectivity <= 0 {
		return 0 // infinitely selective
	}
	return p.Rate / p.Selectivity * overEtchMinutes
}

// String renders the process like a recipe line.
func (p EtchProcess) String() string {
	return fmt.Sprintf("%s: %.0f nm/min, selectivity %.0f:1, anisotropy %.1f",
		p.Name, p.Rate, p.Selectivity, p.Anisotropy)
}
