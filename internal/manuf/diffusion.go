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
