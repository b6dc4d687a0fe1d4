// Package sensor models the paper's power-measurement apparatus: a Pololu
// ACS714 carrier for Allegro's Hall-effect linear current sensor placed on
// the isolated 12V processor supply line, logged over USB by an Atmel AVR
// Stick at 50Hz (Section 2.5 of the paper).
//
// The chain is: processor current -> Hall-effect transfer function
// (185mV/A centered at 2.5V, <1.5% typical error) -> ADC quantization to
// the integer range the paper reports (400-503, i.e. about 103
// quantization points giving ~1% sample error) -> calibration against 28
// reference currents with a per-sensor linear fit (R^2 >= 0.999 required)
// -> average watts over the run.
//
// The substitution for real hardware is documented in DESIGN.md: the same
// code path is exercised end to end, with the sensed current supplied by
// the machine simulator instead of a physical rail.
package sensor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fastrand"
)

// Electrical and apparatus constants from Section 2.5 of the paper.
const (
	// SupplyVolts is the processor supply rail voltage. The paper
	// measured it as stable within 1%.
	SupplyVolts = 12.0

	// SensitivityVoltsPerAmp is the ACS714 transfer slope: 185 mV/A.
	SensitivityVoltsPerAmp = 0.185

	// OffsetVolts is the ACS714 zero-current output, centered at 2.5V.
	OffsetVolts = 2.5

	// TypicalErrorFraction is the sensor's typical error: under 1.5%.
	TypicalErrorFraction = 0.015

	// SampleHz is the AVR data logger's sampling rate.
	SampleHz = 50.0

	// CalibrationPoints is the number of reference currents used to
	// calibrate each meter (28 currents between 300 mA and 3 A).
	CalibrationPoints = 28

	// MinR2 is the calibration acceptance threshold from the paper:
	// every sensor achieved R^2 of 0.999 or better.
	MinR2 = 0.999
)

// Sensor models one ACS714 Hall-effect current sensor plus its ADC.
// Individual boards differ slightly in gain and offset (that is why the
// paper calibrates each one); those per-part deviations are drawn
// deterministically from the seed.
type Sensor struct {
	// MaxAmps is the sensor's rated bidirectional range. The paper used
	// ±5A parts except on the i7, which needed a ±30A part.
	MaxAmps float64

	gain      float64 // actual volts/amp of this physical part
	offset    float64 // actual zero-current output voltage
	noiseAmps float64 // RMS noise referred to the input, in amps
	adc       ADC
	rng       *fastrand.Source

	// Failure-injection state (see defects.go).
	defect    Defect
	driftAmps float64
	driftRng  *fastrand.Source
}

// ADC models the data logger's analog-to-digital conversion. The paper's
// logger reports integers in roughly the 400-503 range across the
// calibrated span, i.e. about 103 quantization points (~1% error).
type ADC struct {
	// Bits is the converter resolution (the AVR's ADC is 10-bit).
	Bits int
	// VRef is the full-scale reference voltage.
	VRef float64
}

// Convert quantizes an input voltage to the nearest ADC code, halves
// rounding up, saturating at 0 and at the top code 2^Bits-1. NaN reads
// 0. The result equals math.Round of the scaled input, clamped, for
// Bits up to 52.
func (a ADC) Convert(volts float64) int {
	levels := (1 << a.Bits) - 1
	v := volts / a.VRef * float64(levels)
	// Saturate before converting: Go leaves an out-of-range float-to-int
	// conversion implementation-defined (amd64 turns +Inf into MinInt64).
	if v >= float64(levels) {
		return levels
	}
	// For 0.5 <= v < 2^52, v+0.5 is exact or rounds without crossing an
	// integer, so truncating it is math.Round. Below 0.5 the sum can round
	// up to 1 (0.49999999999999994 + 0.5 == 1), and the code is 0 anyway.
	if !(v >= 0.5) {
		return 0
	}
	return int(v + 0.5)
}

// VoltsPerCode returns the quantization step in volts.
func (a ADC) VoltsPerCode() float64 {
	levels := (1 << a.Bits) - 1
	return a.VRef / float64(levels)
}

// New creates a sensor with per-part gain/offset tolerance derived
// deterministically from seed. maxAmps selects the part's rated range
// (5A for most processors, 30A for the i7).
func New(maxAmps float64, seed int64) *Sensor {
	rng := fastrand.NewSource(seed)
	// Per-part tolerance: gain within ±1.5%, offset within ±10 mV.
	gain := SensitivityVoltsPerAmp * (1 + (rng.Float64()*2-1)*TypicalErrorFraction)
	offset := OffsetVolts + (rng.Float64()*2-1)*0.010
	return &Sensor{
		MaxAmps:   maxAmps,
		gain:      gain,
		offset:    offset,
		noiseAmps: 0.008,
		adc:       ADC{Bits: 10, VRef: 5.0},
		rng:       rng,
	}
}

// ReadRaw senses the given current and returns the raw ADC code, applying
// the part's true transfer function, input-referred noise, and
// quantization. Currents beyond the rated range saturate. ReadRaw uses
// the sensor's own noise stream and is not safe for concurrent use; the
// harness reads through seeded loggers instead (see NewLoggerSeeded).
func (s *Sensor) ReadRaw(amps float64) int {
	return s.readWith(amps, s.rng)
}

// readWith performs one reading with the supplied noise stream.
func (s *Sensor) readWith(amps float64, rng *fastrand.Source) int {
	if amps > s.MaxAmps {
		amps = s.MaxAmps
	}
	if amps < -s.MaxAmps {
		amps = -s.MaxAmps
	}
	if s.defect != DefectNone {
		perturbed, stuck := s.applyDefect(amps, rng)
		if stuck {
			return s.adc.Convert(s.offset) // wedged at the zero-current code
		}
		amps = perturbed
	}
	noisy := amps + rng.NormFloat64()*s.noiseAmps
	return s.adc.Convert(s.offset + s.gain*noisy)
}

// Calibration holds a per-sensor linear fit from ADC code to amps,
// produced by CalibrateWith.
type Calibration struct {
	CodeToAmps linearFit
	R2         float64
	Points     int
}

// linearFit is a minimal code->amps line; we keep it local so the sensor
// package has no dependency on the stats package (the calibration rig in
// rig.go performs the full statistical validation).
type linearFit struct {
	Slope, Intercept float64
}

// Amps converts a raw ADC code to a calibrated current reading.
func (c Calibration) Amps(code int) float64 {
	return c.CodeToAmps.Slope*float64(code) + c.CodeToAmps.Intercept
}

// Watts converts a raw ADC code to instantaneous chip power, using the
// measured (stable) 12V rail voltage.
func (c Calibration) Watts(code int) float64 {
	return c.Amps(code) * SupplyVolts
}

// Valid reports whether the calibration meets the paper's acceptance
// threshold of R^2 >= 0.999.
func (c Calibration) Valid() bool { return c.R2 >= MinR2 }

// ErrBadCalibration is returned when a sensor cannot be calibrated to the
// paper's R^2 threshold.
var ErrBadCalibration = errors.New("sensor: calibration R^2 below 0.999 threshold")

// CalibrateWith calibrates the sensor against the supplied reference
// currents, mimicking the paper's current-source procedure, and returns
// the fitted code->amps mapping. For each reference current the sensor is
// read repeatedly and the mean code is used, as a real rig would.
func (s *Sensor) CalibrateWith(refAmps []float64) (Calibration, error) {
	if len(refAmps) < 2 {
		return Calibration{}, errors.New("sensor: need at least two reference currents")
	}
	// A current source cannot emit NaN or infinity; rejecting them here
	// keeps the fit (and every Watts conversion derived from it) finite.
	for i, amps := range refAmps {
		if math.IsNaN(amps) || math.IsInf(amps, 0) {
			return Calibration{}, fmt.Errorf("sensor: reference current %d is not finite", i)
		}
	}
	codes := make([]float64, len(refAmps))
	for i, amps := range refAmps {
		const reads = 32
		sum := 0.0
		for r := 0; r < reads; r++ {
			sum += float64(s.ReadRaw(amps))
		}
		codes[i] = sum / reads
	}
	slope, intercept, r2, err := fitLine(codes, refAmps)
	if err != nil {
		return Calibration{}, fmt.Errorf("sensor: calibration fit: %w", err)
	}
	// Finite references can still overflow the least-squares sums (e.g.
	// currents near MaxFloat64); a non-finite fit is a failed calibration,
	// never a usable one.
	if math.IsNaN(slope) || math.IsInf(slope, 0) ||
		math.IsNaN(intercept) || math.IsInf(intercept, 0) ||
		math.IsNaN(r2) || math.IsInf(r2, 0) {
		return Calibration{}, errors.New("sensor: calibration fit is not finite")
	}
	cal := Calibration{
		CodeToAmps: linearFit{Slope: slope, Intercept: intercept},
		R2:         r2,
		Points:     len(refAmps),
	}
	if !cal.Valid() {
		return cal, ErrBadCalibration
	}
	return cal, nil
}

// Calibrate runs CalibrateWith over the paper's 28 reference currents
// spaced between 300 mA and 3 A.
func (s *Sensor) Calibrate() (Calibration, error) {
	return s.CalibrateWith(ReferenceCurrents())
}

// ReferenceCurrents returns the paper's calibration ladder: 28 currents
// evenly spaced between 300 mA and 3 A.
func ReferenceCurrents() []float64 {
	refs := make([]float64, CalibrationPoints)
	for i := range refs {
		refs[i] = 0.3 + float64(i)*(3.0-0.3)/float64(CalibrationPoints-1)
	}
	return refs
}

// fitLine is ordinary least squares of ys on xs with R^2, local to avoid
// an import cycle with the stats package's tests.
func fitLine(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, 0, errors.New("need two points")
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("degenerate x values")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	r2 = 1.0
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2, nil
}
