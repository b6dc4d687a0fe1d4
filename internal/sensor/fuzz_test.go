package sensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// refsFromBytes decodes fuzz input into a reference-current ladder: each
// 8-byte chunk is one float64, bit pattern taken verbatim so NaNs,
// infinities, subnormals, and negative zero all appear.
func refsFromBytes(data []byte) []float64 {
	refs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		refs = append(refs, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
		data = data[8:]
	}
	return refs
}

func refsToBytes(refs []float64) []byte {
	b := make([]byte, 0, 8*len(refs))
	for _, v := range refs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzCalibrate drives CalibrateWith with arbitrary reference currents:
// it must never panic, and a calibration it accepts must be entirely
// finite — fit coefficients, R^2, and every conversion over the ADC's
// code range.
func FuzzCalibrate(f *testing.F) {
	f.Add(int64(42), refsToBytes(ReferenceCurrents()))
	f.Add(int64(1), refsToBytes([]float64{0.3, 3.0}))
	f.Add(int64(2), refsToBytes([]float64{math.NaN(), 1, 2}))
	f.Add(int64(3), refsToBytes([]float64{math.Inf(1), math.Inf(-1)}))
	f.Add(int64(4), refsToBytes([]float64{math.MaxFloat64, -math.MaxFloat64, 1}))
	f.Add(int64(5), refsToBytes([]float64{1, 1, 1}))      // degenerate: one code
	f.Add(int64(6), refsToBytes([]float64{0.5}))          // too few points
	f.Add(int64(7), refsToBytes(nil))                     // empty
	f.Add(int64(8), refsToBytes([]float64{-0.0, 5e-324})) // signed zero, subnormal

	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		refs := refsFromBytes(data)
		s := New(5.0, seed)
		cal, err := s.CalibrateWith(refs)
		if err != nil {
			return // rejection is always acceptable; panicking is not
		}
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted calibration has non-finite %s = %v (refs %v)", name, v, refs)
			}
		}
		finite("slope", cal.CodeToAmps.Slope)
		finite("intercept", cal.CodeToAmps.Intercept)
		finite("R2", cal.R2)
		if !cal.Valid() {
			t.Fatalf("nil error but R^2 %v below threshold (refs %v)", cal.R2, refs)
		}
		if cal.Points != len(refs) {
			t.Fatalf("Points = %d, want %d", cal.Points, len(refs))
		}
		// Every code the 10-bit logger can emit must convert to finite
		// amps and watts.
		for _, code := range []int{0, 1, 511, 1022, 1023} {
			finite("Amps", cal.Amps(code))
			finite("Watts", cal.Watts(code))
		}
	})
}

// FuzzADCConvert checks Convert against a float reference — math.Round
// of the scaled input, clamped in float, then converted — for any input
// voltage, reference and resolution up to 32 bits.
func FuzzADCConvert(f *testing.F) {
	f.Add(2.5, 5.0, uint8(10))
	f.Add(0.49999999999999994, 1.0, uint8(1))
	f.Add(math.Inf(1), 5.0, uint8(10))
	f.Add(1e20, 5.0, uint8(10))
	f.Add(math.NaN(), 5.0, uint8(10))
	f.Add(-3.0, 5.0, uint8(12))
	f.Add(1.0, 0.0, uint8(10))
	f.Add(4.999, 5.0, uint8(32))
	f.Fuzz(func(t *testing.T, volts, vref float64, bits uint8) {
		adc := ADC{Bits: int(bits%32) + 1, VRef: vref}
		levels := (1 << adc.Bits) - 1
		r := math.Round(volts / adc.VRef * float64(levels))
		want := 0
		switch {
		case r > float64(levels):
			want = levels
		case r > 0:
			want = int(r)
		}
		if got := adc.Convert(volts); got != want {
			t.Fatalf("%+v.Convert(%v) = %d, reference %d", adc, volts, got, want)
		}
	})
}
