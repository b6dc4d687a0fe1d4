package fastrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesStdlib replays long raw streams against math/rand's
// default source for a spread of seeds, including the special cases the
// stdlib normalizes (zero, negative, beyond int32max).
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 77, 89482311, int32max, int32max + 1,
		-int32max, math.MaxInt64, math.MinInt64, 0x1091}
	for s := int64(2); s < 1000; s += 97 {
		seeds = append(seeds, s, -s, s*1e9)
	}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for i := 0; i < 2000; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: %d != stdlib %d", seed, i, g, w)
			}
		}
	}
}

// TestReseedMatchesFreshSource checks Seed fully resets the register:
// a reused, advanced source re-seeded to s must continue exactly like a
// fresh one.
func TestReseedMatchesFreshSource(t *testing.T) {
	src := NewSource(1)
	for i := 0; i < 1234; i++ {
		src.Uint64()
	}
	src.Seed(42)
	fresh := NewSource(42)
	for i := 0; i < 2000; i++ {
		if a, b := src.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d after reseed: %d != %d", i, a, b)
		}
	}
}

// TestDerivedDrawsMatchStdlib exercises rand.Rand's adapters over a
// Source (NormFloat64, Float64, Intn) — these must be bit-identical, not
// merely statistically equivalent, for a Source to stand in for the
// stdlib's.
func TestDerivedDrawsMatchStdlib(t *testing.T) {
	for _, seed := range []int64{1, 42, -3, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		for i := 0; i < 5000; i++ {
			switch i % 3 {
			case 0:
				if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d NormFloat64 %d: %v != %v", seed, i, g, w)
				}
			case 1:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d Float64 %d: %v != %v", seed, i, g, w)
				}
			case 2:
				if w, g := want.Intn(1<<30), got.Intn(1<<30); w != g {
					t.Fatalf("seed %d Intn %d: %v != %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestDirectDrawsMatchStdlib replays Source's own NormFloat64 and
// Float64 against rand.Rand's over the stdlib source, interleaved with
// raw draws, across reseeds of one reused Source. Long enough streams
// reach the ziggurat's rare paths — the wedge test and the base strip's
// tail loop, which draw Float64 inside NormFloat64 — so the copied
// tables are checked draw for draw.
func TestDirectDrawsMatchStdlib(t *testing.T) {
	got := NewSource(7)
	for _, seed := range []int64{1, 42, -3, 1 << 40, 0, math.MaxInt64} {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for i := 0; i < 50000; i++ {
			switch i % 7 {
			case 3:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d Float64 %d: %v != %v", seed, i, g, w)
				}
			case 6:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d Uint64 %d: %v != %v", seed, i, g, w)
				}
			default:
				if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d NormFloat64 %d: %v != %v", seed, i, g, w)
				}
			}
		}
	}
}

// FuzzDraws replays a Source's NormFloat64 and Float64 against
// rand.Rand over the stdlib source for any seed, draw count and mix of
// the two: the fill blocks must land before every seeded word's first
// read wherever the stream stops and whichever draw reads it.
func FuzzDraws(f *testing.F) {
	f.Add(int64(42), uint16(400), uint64(0))
	f.Add(int64(0), uint16(700), uint64(0x5555555555555555))
	f.Add(int64(-1), uint16(1), ^uint64(0))
	f.Add(int64(math.MinInt64), uint16(333), uint64(0xf0f0))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix uint64) {
		want := rand.New(rand.NewSource(seed))
		got := NewSource(seed)
		for i := 0; i < int(draws); i++ {
			if mix>>(i%64)&1 == 1 {
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d Float64 %d: %v != %v", seed, i, g, w)
				}
			} else if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
				t.Fatalf("seed %d NormFloat64 %d: %v != %v", seed, i, g, w)
			}
		}
	})
}

var normSink float64

// BenchmarkNormFloat64 times one standard normal draw: Source's own
// method next to math/rand's ziggurat over a Source, the path the
// simulator and the meter took before. The reseed128 cases reseed every
// 128 draws, as a short run does, so the lazy register fill after each
// Seed is part of the per-draw cost.
func BenchmarkNormFloat64(b *testing.B) {
	for _, every := range []int{0, 128} {
		suffix := ""
		if every > 0 {
			suffix = "_reseed128"
		}
		b.Run("Source"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			s := NewSource(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if every > 0 && i%every == 0 {
					s.Seed(int64(i))
				}
				normSink += s.NormFloat64()
			}
		})
		b.Run("RandOverSource"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			r := rand.New(NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if every > 0 && i%every == 0 {
					r.Seed(int64(i))
				}
				normSink += r.NormFloat64()
			}
		})
	}
}

// BenchmarkSeed measures the fast path this package exists for.
func BenchmarkSeed(b *testing.B) {
	b.ReportAllocs()
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkSeedStdlib is the stdlib baseline for BenchmarkSeed.
func BenchmarkSeedStdlib(b *testing.B) {
	b.ReportAllocs()
	s := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
