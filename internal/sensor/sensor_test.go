package sensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/proc"
)

// TestADCConvertBounds pins the converter's rounding and saturation,
// including inputs outside float-to-int range: Go leaves converting
// them implementation-defined, so Convert must saturate first.
func TestADCConvertBounds(t *testing.T) {
	logger := ADC{Bits: 10, VRef: 5.0}
	// A one-bit converter over 1 V scales volts exactly, so the rounding
	// boundary is tested at the float just below one half.
	unit := ADC{Bits: 1, VRef: 1}
	for _, tc := range []struct {
		name  string
		adc   ADC
		volts float64
		want  int
	}{
		{"negative", logger, -1, 0},
		{"-Inf", logger, math.Inf(-1), 0},
		{"NaN", logger, math.NaN(), 0},
		{"zero", logger, 0, 0},
		{"mid-scale", logger, 2.5, 512},
		{"within half a step of full scale", logger, 4.999, 1023},
		{"full scale", logger, 5, 1023},
		{"over-range", logger, 6, 1023},
		{"far over-range", logger, 1e20, 1023},
		{"MaxFloat64", logger, math.MaxFloat64, 1023},
		{"+Inf", logger, math.Inf(1), 1023},
		{"just under one half", unit, 0.49999999999999994, 0},
		{"one half rounds up", unit, 0.5, 1},
		{"one", unit, 1, 1},
	} {
		if got := tc.adc.Convert(tc.volts); got != tc.want {
			t.Errorf("%s: %+v.Convert(%v) = %d, want %d", tc.name, tc.adc, tc.volts, got, tc.want)
		}
	}
}

func TestADCMonotone(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	prev := -1
	for v := 0.0; v <= 5.0; v += 0.01 {
		code := adc.Convert(v)
		if code < prev {
			t.Fatalf("ADC not monotone at %v: %d < %d", v, code, prev)
		}
		prev = code
	}
}

func TestADCVoltsPerCode(t *testing.T) {
	adc := ADC{Bits: 10, VRef: 5.0}
	want := 5.0 / 1023.0
	if got := adc.VoltsPerCode(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("VoltsPerCode = %v, want %v", got, want)
	}
}

func TestReferenceCurrentsSpanPaperRange(t *testing.T) {
	refs := ReferenceCurrents()
	if len(refs) != 28 {
		t.Fatalf("got %d reference currents, want 28", len(refs))
	}
	if refs[0] != 0.3 || math.Abs(refs[27]-3.0) > 1e-12 {
		t.Fatalf("range = [%v, %v], want [0.3, 3.0]", refs[0], refs[27])
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] <= refs[i-1] {
			t.Fatalf("reference currents not increasing at %d", i)
		}
	}
}

func TestCalibrationMeetsPaperThreshold(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := New(5, seed)
		cal, err := s.Calibrate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cal.R2 < MinR2 {
			t.Fatalf("seed %d: R2 = %v below paper threshold %v", seed, cal.R2, MinR2)
		}
		if cal.Points != 28 {
			t.Fatalf("calibrated over %d points, want 28", cal.Points)
		}
	}
}

func TestCalibratedReadingAccuracy(t *testing.T) {
	s := New(5, 42)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	// A calibrated sample should be within ~1.5% at moderate currents,
	// matching the paper's ~1% quantization fidelity claim plus noise.
	for _, amps := range []float64{0.5, 1.0, 2.0, 2.8} {
		const reads = 64
		sum := 0.0
		for i := 0; i < reads; i++ {
			sum += cal.Amps(s.ReadRaw(amps))
		}
		got := sum / reads
		if rel := math.Abs(got-amps) / amps; rel > 0.015 {
			t.Errorf("at %vA: read %vA (rel err %.3f)", amps, got, rel)
		}
	}
}

func TestCalibrationWattsUsesRail(t *testing.T) {
	s := New(30, 7)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	code := s.ReadRaw(2.0)
	if w, a := cal.Watts(code), cal.Amps(code); math.Abs(w-a*SupplyVolts) > 1e-9 {
		t.Fatalf("Watts=%v, Amps*12=%v", w, a*SupplyVolts)
	}
}

func TestCalibrateWithTooFewPoints(t *testing.T) {
	s := New(5, 1)
	if _, err := s.CalibrateWith([]float64{1.0}); err == nil {
		t.Fatal("want error for single calibration point")
	}
}

func TestSensorSaturates(t *testing.T) {
	s := New(5, 3)
	avg := func(amps float64) float64 {
		const reads = 128
		sum := 0.0
		for i := 0; i < reads; i++ {
			sum += float64(s.ReadRaw(amps))
		}
		return sum / reads
	}
	// Far-over-range input must clamp to the same mean code as the rated
	// maximum (reads are noisy, so compare averages).
	if hi, atMax := avg(100), avg(5); math.Abs(hi-atMax) > 1.0 {
		t.Fatalf("saturated read %v != at-range read %v", hi, atMax)
	}
	if lo, atMin := avg(-100), avg(-5); math.Abs(lo-atMin) > 1.0 {
		t.Fatalf("negative saturation %v != %v", lo, atMin)
	}
}

func TestLoggerAveragesPower(t *testing.T) {
	s := New(30, 11)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	// 10 seconds at 24W: current is 2A, well within calibration range.
	for i := 0; i < 500; i++ {
		lg.Sample(24.0, 0.02)
	}
	tr, err := lg.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.AvgWatts-24) > 24*0.02 {
		t.Fatalf("AvgWatts = %v, want ~24", tr.AvgWatts)
	}
	if math.Abs(tr.Seconds-10) > 1e-9 {
		t.Fatalf("Seconds = %v, want 10", tr.Seconds)
	}
	if tr.Samples != 500 {
		t.Fatalf("Samples = %d, want 500", tr.Samples)
	}
	if tr.MinWatts > tr.AvgWatts || tr.MaxWatts < tr.AvgWatts {
		t.Fatalf("min/avg/max inconsistent: %v/%v/%v", tr.MinWatts, tr.AvgWatts, tr.MaxWatts)
	}
}

func TestLoggerWeightedAverage(t *testing.T) {
	s := New(30, 13)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	// Half the time at 12W, half at 36W -> time-weighted mean 24W.
	for i := 0; i < 200; i++ {
		lg.Sample(12, 0.05)
		lg.Sample(36, 0.05)
	}
	tr, err := lg.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.AvgWatts-24) > 24*0.03 {
		t.Fatalf("weighted AvgWatts = %v, want ~24", tr.AvgWatts)
	}
	if tr.StdWatts < 5 {
		t.Fatalf("StdWatts = %v, want bimodal spread ~12", tr.StdWatts)
	}
}

func TestLoggerEmptyFinishErrors(t *testing.T) {
	s := New(5, 17)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Finish(); err == nil {
		t.Fatal("want error finishing empty logger")
	}
}

func TestLoggerReset(t *testing.T) {
	s := New(5, 19)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	lg.Sample(24, 1)
	lg.Reset()
	if _, err := lg.Finish(); err == nil {
		t.Fatal("want error after reset with no samples")
	}
}

func TestLoggerRejectsInvalidCalibration(t *testing.T) {
	s := New(5, 23)
	if _, err := NewLogger(s, Calibration{R2: 0.5}); !errors.Is(err, ErrBadCalibration) {
		t.Fatalf("err = %v, want ErrBadCalibration", err)
	}
	if _, err := NewLogger(nil, Calibration{R2: 1}); err == nil {
		t.Fatal("want error for nil sensor")
	}
}

func TestLoggerIgnoresNonPositiveWeight(t *testing.T) {
	s := New(5, 29)
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogger(s, cal)
	if err != nil {
		t.Fatal(err)
	}
	lg.Sample(24, 0)
	lg.Sample(24, -1)
	if _, err := lg.Finish(); err == nil {
		t.Fatal("zero/negative weights must not count as samples")
	}
}

func TestRigBuildsAndValidates(t *testing.T) {
	machines := []string{"Pentium4", "Core2D65", "i7"}
	rig, err := NewRig(machines, map[string]float64{"i7": 30}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.Machines(); len(got) != 3 {
		t.Fatalf("Machines = %v", got)
	}
	m, err := rig.Meter("i7")
	if err != nil {
		t.Fatal(err)
	}
	if m.Sensor.MaxAmps != 30 {
		t.Fatalf("i7 sensor range = %v, want 30", m.Sensor.MaxAmps)
	}
	reports, err := rig.Validate([]float64{0.5, 1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.R2 < MinR2 {
			t.Errorf("%s: R2 = %v", r.Machine, r.R2)
		}
		if r.MaxRelErr > 0.03 {
			t.Errorf("%s: max rel err = %v", r.Machine, r.MaxRelErr)
		}
	}
}

func TestRigUnknownMachine(t *testing.T) {
	rig, err := NewRig([]string{"a"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Meter("nope"); err == nil {
		t.Fatal("want error for unknown machine")
	}
}

func TestRigValidateRejectsBadInput(t *testing.T) {
	rig, err := NewRig([]string{"a"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Validate(nil); err == nil {
		t.Fatal("want error for empty validation set")
	}
	if _, err := rig.Validate([]float64{-1}); err == nil {
		t.Fatal("want error for non-positive current")
	}
}

// TestSensorChainMonotoneWithinOneStep sweeps true power through each
// meter of a seed-42 rig with the noise term zeroed: watts -> amps ->
// Hall voltage -> ADC code -> calibrated watts. Across the span where
// neither the part's rated range nor the ADC saturates, the code and the
// calibrated watts never decrease as the current rises, and calibrated
// watts stay within one ADC step of the truth. The i7's 30 A part keeps
// the 185 mV/A gain, so its ADC tops out near 13.5 A, below its rating.
func TestSensorChainMonotoneWithinOneStep(t *testing.T) {
	// The harness's rig: one meter per fleet machine, in fleet order.
	var machines []string
	for _, p := range proc.Fleet() {
		machines = append(machines, p.Name)
	}
	rig, err := NewRig(machines, map[string]float64{proc.I7Name: 30}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rig.Machines() {
		m, err := rig.Meter(name)
		if err != nil {
			t.Fatal(err)
		}
		s := *m.Sensor
		s.noiseAmps = 0
		// The last unsaturated current: the rating, or the input whose
		// Hall voltage reaches the ADC's full scale.
		top := min(s.MaxAmps, (s.adc.VRef-s.offset)/s.gain)
		stepWatts := m.Cal.CodeToAmps.Slope * SupplyVolts
		prevCode, prevWatts, worst := -1, math.Inf(-1), 0.0
		for amps := 0.0; amps < top; amps += 1e-3 {
			trueWatts := amps * SupplyVolts
			code := s.readWith(trueWatts/SupplyVolts, s.rng)
			got := m.Cal.Watts(code)
			if code < prevCode || got < prevWatts {
				t.Fatalf("%s: at %v A code %d (%v W) fell below %d (%v W)", name, amps, code, got, prevCode, prevWatts)
			}
			worst = max(worst, math.Abs(got-trueWatts)/stepWatts)
			prevCode, prevWatts = code, got
		}
		if worst > 1 {
			t.Errorf("%s: calibrated watts off by %.2f ADC steps of %.3f W over [0, %.2f) A", name, worst, stepWatts, top)
		}
		t.Logf("%s: worst error %.2f steps of %.3f W over [0, %.2f) A", name, worst, stepWatts, top)
	}
}

// Property: sensors are deterministic given a seed — the same seed yields
// an identical calibration.
func TestQuickSensorDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a, errA := New(5, seed).Calibrate()
		b, errB := New(5, seed).Calibrate()
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return a.CodeToAmps == b.CodeToAmps && a.R2 == b.R2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: calibrated readings are monotone in true current across the
// rated range (averaging out noise).
func TestQuickCalibratedMonotone(t *testing.T) {
	f := func(seedRaw uint8) bool {
		s := New(5, int64(seedRaw))
		cal, err := s.Calibrate()
		if err != nil {
			return false
		}
		read := func(amps float64) float64 {
			sum := 0.0
			for i := 0; i < 48; i++ {
				sum += cal.Amps(s.ReadRaw(amps))
			}
			return sum / 48
		}
		prev := read(0.3)
		for amps := 0.8; amps <= 3.0; amps += 0.5 {
			cur := read(amps)
			if cur <= prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
