package sim

import (
	"testing"

	"repro/internal/proc"
	"repro/internal/sensor"
)

// BenchmarkSimRun measures one seeded replay of a planned run — the
// operation the harness repeats for every invocation of every benchmark
// on every configuration, so it dominates the full study's wall time.
// The Runner is built once, as the harness builds it once per spec; the
// replay itself must not allocate (the kernel refactor's contract). The
// logged case feeds every step to a reseeded sensor logger, as the
// harness does, so the meter's noise draws and ADC are in the timing.
func BenchmarkSimRun(b *testing.B) {
	p, err := proc.ByName(proc.I7Name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(p, p.Stock())
	if err != nil {
		b.Fatal(err)
	}
	r, err := m.NewRunner(scalableSpec(p.HWContexts()))
	if err != nil {
		b.Fatal(err)
	}
	s := sensor.New(30, 42)
	cal, err := s.Calibrate()
	if err != nil {
		b.Fatal(err)
	}
	lg, err := sensor.NewLoggerSeeded(s, cal, 0)
	if err != nil {
		b.Fatal(err)
	}
	// One untimed replay builds the process-wide phase table, so even a
	// single timed iteration reports the replay's own allocations.
	if _, err := r.Run(0, nil); err != nil {
		b.Fatal(err)
	}
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(int64(i), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("logged", func(b *testing.B) {
		sample := lg.Sample
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lg.Reseed(int64(i) ^ 0x1091); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(int64(i), sample); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewRunner measures the planning cost the Runner pays once per
// spec: segment planning, turbo solving, and power-kernel compilation.
func BenchmarkNewRunner(b *testing.B) {
	p, err := proc.ByName(proc.I7Name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(p, p.Stock())
	if err != nil {
		b.Fatal(err)
	}
	spec := scalableSpec(p.HWContexts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.NewRunner(spec); err != nil {
			b.Fatal(err)
		}
	}
}
