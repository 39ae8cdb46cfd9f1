package manuf

import "math"

// DiffusionStep models a constant-source or limited-source dopant
// diffusion at a given temperature.
type DiffusionStep struct {
	// D is the diffusivity in cm^2/s at the process temperature.
	D float64
	// TimeS is the diffusion time in seconds.
	TimeS float64
}

// ConstantSourceProfile returns the concentration at depth x (cm) for a
// constant surface concentration Cs: C(x) = Cs * erfc(x / (2 sqrt(Dt))).
func (s DiffusionStep) ConstantSourceProfile(cs, x float64) float64 {
	l := 2 * math.Sqrt(s.D*s.TimeS)
	if l == 0 {
		if x == 0 {
			return cs
		}
		return 0
	}
	return cs * math.Erfc(x/l)
}

// LimitedSourceProfile returns the Gaussian drive-in profile for a fixed
// dose Q (atoms/cm^2): C(x) = Q/sqrt(pi D t) * exp(-x^2/(4 D t)).
//
//lint:ignore unreachable called only by TestLimitedSourceDoseConservation and TestMiscHelpers
func (s DiffusionStep) LimitedSourceProfile(q, x float64) float64 {
	dt := s.D * s.TimeS
	if dt == 0 {
		return 0
	}
	return q / math.Sqrt(math.Pi*dt) * math.Exp(-x*x/(4*dt))
}

// JunctionDepthConstantSource solves C(xj) = Cb for the constant-source
// profile: xj = 2 sqrt(Dt) * erfcinv(Cb/Cs), via bisection.
func (s DiffusionStep) JunctionDepthConstantSource(cs, cb float64) float64 {
	if cb >= cs || cb <= 0 {
		return 0
	}
	l := 2 * math.Sqrt(s.D*s.TimeS)
	lo, hi := 0.0, 12*l
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if s.ConstantSourceProfile(cs, mid) > cb {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ArrheniusD returns D = D0 * exp(-Ea / (k*T)) with Ea in eV and T in
// kelvin.
//
//lint:ignore unreachable called only by TestArrhenius
func ArrheniusD(d0, eaEV, tempK float64) float64 {
	const kBoltzmannEV = 8.617333262e-5
	return d0 * math.Exp(-eaEV/(kBoltzmannEV*tempK))
}

// OxideGrowthDealGrove returns the oxide thickness (um) grown in time t
// (hours) under the Deal–Grove model with linear and parabolic rate
// constants B/A (um/h) and B (um^2/h), starting from initial thickness
// x0: x^2 + A x = B (t + tau).
func OxideGrowthDealGrove(bOverA, b, x0, tHours float64) float64 {
	if bOverA <= 0 || b <= 0 {
		return x0
	}
	a := b / bOverA
	tau := (x0*x0 + a*x0) / b
	// Solve x^2 + A x - B(t+tau) = 0.
	disc := a*a + 4*b*(tHours+tau)
	return (-a + math.Sqrt(disc)) / 2
}

// SheetResistance returns rho/t for a uniform film (ohm/sq) given
// resistivity (ohm*cm) and thickness (cm).
func SheetResistance(resistivity, thickness float64) float64 {
	if thickness == 0 {
		return math.Inf(1)
	}
	return resistivity / thickness
}
