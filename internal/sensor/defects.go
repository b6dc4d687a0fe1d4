package sensor

import (
	"math"

	"repro/internal/fastrand"
)

// Defect models a failure mode of a physical sensor board. The paper's
// rig trusts a meter only after its calibration fit reaches R^2 >= 0.999
// (Section 2.5); these injectable defects are how the test suite proves
// that gate actually rejects bad hardware rather than waving it through.
type Defect int

const (
	// DefectNone is a healthy board.
	DefectNone Defect = iota
	// DefectNonlinear bends the transfer function: the Hall element
	// saturates progressively instead of at the rated limit, a classic
	// failure of an overheated or mis-biased part.
	DefectNonlinear
	// DefectNoisy multiplies the input-referred noise by an order of
	// magnitude: a broken solder joint or unshielded supply.
	DefectNoisy
	// DefectStuck wedges the ADC output at a constant code: a dead
	// logger channel.
	DefectStuck
	// DefectDrift adds a slow random walk to the offset: thermal drift
	// in an uncompensated board.
	DefectDrift
)

// String names the defect.
func (d Defect) String() string {
	switch d {
	case DefectNone:
		return "healthy"
	case DefectNonlinear:
		return "nonlinear"
	case DefectNoisy:
		return "noisy"
	case DefectStuck:
		return "stuck"
	case DefectDrift:
		return "drifting"
	default:
		return "unknown"
	}
}

// NewDefective builds a sensor with the given failure mode injected.
// A DefectNone sensor is identical to New's.
func NewDefective(maxAmps float64, seed int64, defect Defect) *Sensor {
	s := New(maxAmps, seed)
	s.defect = defect
	s.driftRng = fastrand.NewSource(seed ^ 0x5eed)
	return s
}

// applyDefect perturbs a raw current reading according to the board's
// failure mode; called from readWith before quantization. Defective
// sensors are a single-goroutine test facility: the drift walk is
// shared state.
func (s *Sensor) applyDefect(amps float64, rng *fastrand.Source) (float64, bool) {
	switch s.defect {
	case DefectNonlinear:
		// Progressive compression: readings sag toward a soft ceiling.
		return s.MaxAmps * 0.6 * math.Tanh(amps/(s.MaxAmps*0.6)) * 1.15, false
	case DefectNoisy:
		return amps + rng.NormFloat64()*s.noiseAmps*45, false
	case DefectStuck:
		return 0, true // caller substitutes the stuck code
	case DefectDrift:
		s.driftAmps += s.driftRng.NormFloat64() * 0.02
		return amps + s.driftAmps, false
	default:
		return amps, false
	}
}
