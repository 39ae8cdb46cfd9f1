package analog

import "math"

// MOSFET holds the small-signal parameters of a transistor biased in
// saturation: transconductance gm (S), output resistance ro (ohm), and
// optionally body transconductance gmb.
type MOSFET struct {
	Gm  float64
	Ro  float64
	Gmb float64
}

// GmFromBias returns gm = 2*ID/Vov, the square-law relation
// device-parameter questions exercise.
func GmFromBias(id, vov float64) float64 {
	if vov == 0 {
		return 0
	}
	return 2 * id / vov
}

// CommonSourceGain returns the small-signal voltage gain of a
// common-source stage with drain resistor RD: Av = -gm*(RD || ro).
func CommonSourceGain(m MOSFET, rd float64) float64 {
	return -m.Gm * ParallelR(rd, m.Ro)
}

// CommonSourceCircuit builds the small-signal equivalent as an MNA
// circuit (for cross-checking the closed form against the solver).
func CommonSourceCircuit(m MOSFET, rd float64) *Circuit {
	c := NewCircuit()
	c.V("Vin", "in", Ground, 1)
	c.VCCS("M1", "out", Ground, "in", Ground, m.Gm)
	c.R("RD", "out", Ground, rd)
	if !math.IsInf(m.Ro, 0) && m.Ro > 0 {
		c.R("ro", "out", Ground, m.Ro)
	}
	return c
}

// SourceFollowerGain returns the gain of a common-drain stage with
// source resistor RS (body effect ignored):
// Av = gm*RS' / (1 + gm*RS') with RS' = RS || ro.
func SourceFollowerGain(m MOSFET, rs float64) float64 {
	rsp := ParallelR(rs, m.Ro)
	return m.Gm * rsp / (1 + m.Gm*rsp)
}

// CommonGateGain returns the gain of a common-gate stage with load RD
// (source driven, ro ignored when infinite): Av = +gm*(RD || ro).
func CommonGateGain(m MOSFET, rd float64) float64 {
	return m.Gm * ParallelR(rd, m.Ro)
}

// DiffPairGain returns the differential gain of a resistively loaded
// differential pair: Ad = -gm*(RD || ro).
func DiffPairGain(m MOSFET, rd float64) float64 {
	return -m.Gm * ParallelR(rd, m.Ro)
}

// CascodeOutputResistance returns the output resistance of a cascode:
// Rout = ro2 + ro1 + gm2*ro2*ro1 ~ gm2*ro2*ro1.
//
//lint:ignore unreachable called only by TestCascodeOutputResistance
func CascodeOutputResistance(m1, m2 MOSFET) float64 {
	return m2.Ro + m1.Ro + m2.Gm*m2.Ro*m1.Ro
}

// MirrorOutputCurrent returns the output current of a current mirror
// whose output device is scaled (W/L)out / (W/L)ref times the reference.
func MirrorOutputCurrent(iref, ratio float64) float64 { return iref * ratio }

// InvertingOpAmpGain is the ideal closed-loop gain -R2/R1.
func InvertingOpAmpGain(r1, r2 float64) float64 { return -r2 / r1 }

// NonInvertingOpAmpGain is the ideal closed-loop gain 1 + R2/R1.
func NonInvertingOpAmpGain(r1, r2 float64) float64 { return 1 + r2/r1 }

// InstrumentationAmpGain is the classic three-op-amp in-amp gain
// (1 + 2R/Rg) for unity second stage.
func InstrumentationAmpGain(r, rg float64) float64 { return 1 + 2*r/rg }

// RCLowPassCutoffHz returns f_c = 1/(2*pi*R*C).
func RCLowPassCutoffHz(r, c float64) float64 { return 1 / (2 * math.Pi * r * c) }

// FlashComparators returns the comparator count of an n-bit flash ADC.
func FlashComparators(bits int) int { return 1<<bits - 1 }

// SARCycles returns the conversion cycles of an n-bit SAR ADC.
func SARCycles(bits int) int { return bits }

// PipelineResidueGain returns the interstage residue gain of a pipeline
// ADC stage resolving bitsPerStage bits: 2^bits.
func PipelineResidueGain(bitsPerStage int) float64 {
	return math.Pow(2, float64(bitsPerStage))
}

// ClosedLoopGain returns A/(1+A*beta), the negative-feedback relation.
func ClosedLoopGain(a, beta float64) float64 { return a / (1 + a*beta) }

// GainBandwidthProduct returns A0 * fp of a single-pole amplifier.
func GainBandwidthProduct(a0, fp float64) float64 { return a0 * fp }
