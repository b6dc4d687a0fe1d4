package harness

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/proc"
	"repro/internal/workload"
)

// FuzzCellKey: over arbitrary cells with positive finite clocks, the
// rendered key, the comparable key and the fields agree on identity,
// and the rendered bytes are the former fmt form the daemon's cache
// keys and the scheduler's lease homes were built from. Zero clocks are
// excluded: -0 and +0 compare equal but render differently, and no part
// validates either.
func FuzzCellKey(f *testing.F) {
	for _, b := range workload.All() {
		if strings.Contains(b.Name, "|") {
			f.Fatalf("benchmark %q contains the key separator", b.Name)
		}
	}
	for _, p := range proc.Fleet() {
		if strings.Contains(p.Name, "|") {
			f.Fatalf("processor %q contains the key separator", p.Name)
		}
	}
	c260, c264 := math.Float64bits(2.60), math.Float64bits(2.64)
	f.Add(int64(42), "mcf", "i7 (45)", 4, 2, c260, false, "mcf", "i7 (45)", 4, 2, c260, false)
	f.Add(int64(42), "mcf", "i7 (45)", 4, 2, c260, false, "mcf", "i7 (45)", 4, 2, c264, false)
	f.Add(int64(0), "lbm", "i5 (32)", 2, 2, math.Float64bits(3.46), true, "lbm", "i5 (32)", 2, 2, math.Float64bits(3.46)+1, true)
	f.Add(int64(-7), "a", "b", -1, 0, uint64(1), false, "a", "b", -1, 0, uint64(1), true)
	f.Fuzz(func(t *testing.T, seed int64, b1, p1 string, cores1, smt1 int, clock1 uint64, turbo1 bool,
		b2, p2 string, cores2, smt2 int, clock2 uint64, turbo2 bool) {
		cell := func(b, p string, cores, smt int, bits uint64, turbo bool) Cell {
			clock := math.Float64frombits(bits)
			if !(clock > 0) || math.IsInf(clock, 0) || strings.Contains(b+p, "|") {
				t.Skip()
			}
			return Cell{Bench: b, Proc: p, Config: proc.Config{Cores: cores, SMTWays: smt, ClockGHz: clock, Turbo: turbo}}
		}
		x := cell(b1, p1, cores1, smt1, clock1, turbo1)
		y := cell(b2, p2, cores2, smt2, clock2, turbo2)
		kx, ky := string(AppendKey(nil, seed, x)), string(AppendKey(nil, seed, y))
		fields := b1 == b2 && p1 == p2 && cores1 == cores2 && smt1 == smt2 && clock1 == clock2 && turbo1 == turbo2
		if (kx == ky) != (x == y) || (x == y) != fields {
			t.Fatalf("identity disagrees: keys %q, %q; cells equal %v; fields equal %v", kx, ky, x == y, fields)
		}
		for _, c := range []Cell{x, y} {
			cfg := c.Config
			want := fmt.Sprintf("%d|%s|%s|%d|%d|%.17g|%t", seed, c.Bench, c.Proc, cfg.Cores, cfg.SMTWays, cfg.ClockGHz, cfg.Turbo)
			if got := string(AppendKey([]byte("m|"), seed, c)); got != "m|"+want {
				t.Fatalf("AppendKey rendered %q, want %q", got, "m|"+want)
			}
		}
	})
}

// i7At is the i7 at 4 cores, 2 threads per core and the given clock.
func i7At(t *testing.T, ghz float64) proc.ConfiguredProcessor {
	t.Helper()
	p, err := proc.ByName(proc.I7Name)
	if err != nil {
		t.Fatal(err)
	}
	return proc.ConfiguredProcessor{Proc: p, Config: proc.Config{Cores: 4, SMTWays: 2, ClockGHz: ghz}}
}

func benchNamed(t *testing.T, name string) *workload.Benchmark {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// freshMeasure measures one cell on a new seed-42 harness.
func freshMeasure(t *testing.T, b *workload.Benchmark, cp proc.ConfiguredProcessor) *Measurement {
	t.Helper()
	h, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(b, cp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSameLabelConfigsAreDistinctCells: i7 4C2T at 2.60 and 2.64 GHz
// share the label "4C2T@2.6GHz" but are different configurations. A
// harness that measured one answers the other with its own clock and
// with a fresh harness's numbers, bit for bit, through both Measure and
// MeasureUncached.
func TestSameLabelConfigsAreDistinctCells(t *testing.T) {
	mcf, lbm := benchNamed(t, "mcf"), benchNamed(t, "lbm")
	lo, hi := i7At(t, 2.60), i7At(t, 2.64)
	if lo.Config.String() != hi.Config.String() {
		t.Fatalf("labels %q and %q differ; the test needs a shared label", lo.Config, hi.Config)
	}
	h, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	first, err := h.Measure(mcf, lo)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*workload.Benchmark{mcf, lbm} {
		want := freshMeasure(t, b, hi)
		got, err := h.Measure(b, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got == first || got.CP.Config != hi.Config {
			t.Fatalf("%s at 2.64 GHz answered with the measurement of %s", b.Name, got.CP)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at 2.64 GHz after mcf at 2.60: %v s / %v W, fresh harness %v s / %v W",
				b.Name, got.Seconds, got.Watts, want.Seconds, want.Watts)
		}
		unc, err := h.MeasureUncached(b, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(unc, want) {
			t.Fatalf("%s at 2.64 GHz uncached: %v s / %v W, fresh harness %v s / %v W",
				b.Name, unc.Seconds, unc.Watts, want.Seconds, want.Watts)
		}
	}
}

// TestMachineMemoBounded: a harness fed more distinct clocks than
// maxMachines memoizes maxMachines machines, and a cell whose machine
// was built past the bound measures as a fresh harness does.
func TestMachineMemoBounded(t *testing.T) {
	h, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	var last proc.ConfiguredProcessor
	for i := 0; i < maxMachines+44; i++ {
		last = i7At(t, 1.6+0.003*float64(i))
		if _, err := h.machine(last); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(h.machines); n != maxMachines {
		t.Fatalf("machine memo holds %d machines, want %d", n, maxMachines)
	}
	mcf := benchNamed(t, "mcf")
	for _, cp := range []proc.ConfiguredProcessor{i7At(t, 1.6), last} {
		got, err := h.Measure(mcf, cp)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshMeasure(t, mcf, cp); !reflect.DeepEqual(got, want) {
			t.Fatalf("mcf on %s: %v s / %v W, fresh harness %v s / %v W", cp, got.Seconds, got.Watts, want.Seconds, want.Watts)
		}
	}
	if n := len(h.machines); n != maxMachines {
		t.Fatalf("machine memo grew to %d machines", n)
	}
}
