package sensor

import (
	"errors"
	"math"

	"repro/internal/fastrand"
)

// Logger models the AVR Stick data logger: it samples a calibrated sensor
// at 50Hz for the duration of a benchmark and accumulates the readings so
// the harness can compute the average power over the run, exactly as the
// paper does ("We execute each benchmark, log its measured power values,
// and then compute the average power consumption over the duration of the
// benchmark").
type Logger struct {
	sensor *Sensor
	rng    *fastrand.Source // the sensor's own stream for NewLogger's loggers
	cal    Calibration

	sumWatts float64 // watt-seconds
	sumSq    float64 // watt^2-seconds
	weight   float64 // total sampled seconds
	n        int
	maxWatts float64
	minWatts float64
}

// NewLogger wires a calibrated sensor into a logger using the sensor's
// own noise stream (single-goroutine use). It refuses a calibration that
// fails the paper's validity threshold.
func NewLogger(s *Sensor, cal Calibration) (*Logger, error) {
	if s == nil {
		return nil, errors.New("sensor: nil sensor")
	}
	return newLogger(s, s.rng, cal)
}

// NewLoggerSeeded wires a calibrated sensor into a logger with an
// independent, deterministic noise stream, safe to use concurrently
// with other loggers on the same sensor.
func NewLoggerSeeded(s *Sensor, cal Calibration, seed int64) (*Logger, error) {
	if s == nil {
		return nil, errors.New("sensor: nil sensor")
	}
	return newLogger(s, fastrand.NewSource(seed), cal)
}

func newLogger(s *Sensor, rng *fastrand.Source, cal Calibration) (*Logger, error) {
	if !cal.Valid() {
		return nil, ErrBadCalibration
	}
	return &Logger{sensor: s, rng: rng, cal: cal, minWatts: math.Inf(1), maxWatts: math.Inf(-1)}, nil
}

// Reseed clears the accumulators and re-arms the logger's noise stream
// from the seed, leaving it indistinguishable from a logger freshly built
// by NewLoggerSeeded with that seed. It lets the harness pool loggers
// across the study's many runs instead of building one per invocation.
// Loggers on the sensor's own stream (NewLogger) cannot be reseeded.
func (l *Logger) Reseed(seed int64) error {
	if l.rng == l.sensor.rng {
		return errors.New("sensor: logger has no independent noise stream to reseed")
	}
	l.rng.Seed(seed)
	l.Reset()
	return nil
}

// Sample senses the instantaneous chip power (supplied by the machine
// simulator as watts on the 12V rail), pushes it through the physical
// sensing chain (watts -> amps -> Hall voltage -> ADC code -> calibrated
// watts), and accumulates it. weight is the duration in seconds the sample
// represents; the simulator integrates with adaptive steps, so a sample
// may stand for more than one 20ms logger tick.
func (l *Logger) Sample(trueWatts, weight float64) {
	if weight <= 0 {
		return
	}
	code := l.sensor.readWith(trueWatts/SupplyVolts, l.rng)
	w := l.cal.Watts(code)
	l.sumWatts += w * weight
	l.sumSq += w * w * weight
	l.weight += weight
	l.n++
	if w > l.maxWatts {
		l.maxWatts = w
	}
	if w < l.minWatts {
		l.minWatts = w
	}
}

// Trace summarizes a completed logging run.
type Trace struct {
	AvgWatts float64 // time-weighted average power over the run
	StdWatts float64 // time-weighted standard deviation of the samples
	MinWatts float64
	MaxWatts float64
	Samples  int     // number of raw samples taken
	Seconds  float64 // total weighted duration
}

// Finish returns the accumulated trace. It returns an error when no
// samples were taken, which would otherwise surface as NaN averages deep
// inside the harness.
func (l *Logger) Finish() (Trace, error) {
	if l.n == 0 {
		return Trace{}, errors.New("sensor: logger finished with no samples")
	}
	total := l.weight
	avg := l.sumWatts / total
	varW := l.sumSq/total - avg*avg
	if varW < 0 {
		varW = 0
	}
	return Trace{
		AvgWatts: avg,
		StdWatts: math.Sqrt(varW),
		MinWatts: l.minWatts,
		MaxWatts: l.maxWatts,
		Samples:  l.n,
		Seconds:  total,
	}, nil
}

// Reset clears the logger for reuse across benchmark invocations.
func (l *Logger) Reset() {
	l.sumWatts, l.sumSq, l.weight, l.n = 0, 0, 0, 0
	l.minWatts, l.maxWatts = math.Inf(1), math.Inf(-1)
}
