// Package fastrand provides a generator that emits exactly math/rand's
// default source stream, and the NormFloat64 and Float64 draws derived
// from it, bit for bit, while seeding and drawing far faster.
//
// The study's determinism contract derives a fresh seed for every run
// from the run's identity, so the full grid re-seeds its generators
// hundreds of thousands of times; profiling showed the stdlib's
// rngSource.Seed — a serial chain of ~1,880 Lehmer steps filling a
// 607-word lagged-Fibonacci register — was the single largest consumer
// of the study's CPU time. This package removes the serial dependency:
// the i-th register word needs the Lehmer stream at fixed positions
// 3i+21, 3i+22, 3i+23, and x_j = 48271^j * x_0 mod (2^31-1), so all 607
// words are computed from precomputed multiplier powers as independent
// multiply-mods.
//
// The stdlib XORs each word with an unexported "cooked" constant table.
// Rather than copying that table, init recovers it from math/rand
// itself: the additive generator's first 667 outputs form a solvable
// system for the seeded register, and XOR-ing out the computable Lehmer
// part leaves the constants. The recovery — and the generator's exact
// equivalence — is locked down by tests that replay math/rand streams.
//
// The draws the simulator and the meter take (NormFloat64, Float64) are
// methods on *Source, so each is one direct call with the register step
// inlined, where rand.Rand goes through Uint32, the Source interface and
// Int63 for every draw.
package fastrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1

	lehmerA = 48271 // the Lehmer multiplier of the stdlib's seed chain
)

// pow[j] is lehmerA^(j+1) mod int32max: the multiplier taking the
// normalized seed to Lehmer position j+1. Seeding needs positions 1
// through 3*rngLen+20+3.
var pow [3*rngLen + 23]uint64

// cooked mirrors math/rand's unexported rngCooked table, recovered from
// the stdlib at init (see recoverCooked).
var cooked [rngLen]int64

func init() {
	x := uint64(1)
	for j := range pow {
		x = x * lehmerA % int32max
		pow[j] = x
	}
	recoverCooked()
}

// mulmod31 computes a*b mod (2^31-1) for a, b < 2^31 by Mersenne-prime
// folding, without the hardware divide a % would cost. The product is
// at most (2^31-1)^2 = 2^62-2^32+1, so its high part v>>31 is at most
// 2^31-2 and one fold (v>>31)+(v&(2^31-1)) stays below 2*(2^31-1): a
// single conditional subtract finishes the reduction.
func mulmod31(a, b uint64) uint64 {
	v := a * b
	v = (v >> 31) + (v & int32max)
	if v >= int32max {
		v -= int32max
	}
	return v
}

// recoverCooked reconstructs the stdlib's cooked table. Seeding with s
// sets vec[i] = u_i(s) ^ cooked[i], where u_i is the computable Lehmer
// part, and the additive generator's output stream reveals the seeded
// register: writes walk cells 333..0 then wrap to 606..334, taps walk
// 606..273 then 272..0, so
//
//	out_k = vec[333-k] + vec[606-k]      k =   0..272 (both unwritten)
//	out_k = vec[333-k] + out_{k-273}     k = 273..333 (tap was written)
//	out_k = vec[940-k] + out_{k-273}     k = 334..606 (feed wraps high)
//
// which back-substitutes into the full register, high words first. The
// cooked table then follows by XOR-ing out the Lehmer part for s = 1.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for c := 334; c <= 606; c++ {
		vec[c] = out[940-c] - out[667-c]
	}
	for c := 61; c <= 333; c++ {
		vec[c] = out[333-c] - vec[c+273]
	}
	for c := 0; c <= 60; c++ {
		vec[c] = out[333-c] - out[60-c]
	}
	// cooked is still all zero here, so filling a register for s = 1
	// yields the Lehmer part alone.
	var u Source
	u.x0 = 1
	u.fillWords(0, rngLen)
	for i := range cooked {
		cooked[i] = vec[i] ^ u.vec[i]
	}
}

// Source is a re-seedable generator emitting exactly math/rand's default
// source stream. It implements rand.Source64, so rand.New(NewSource(s))
// behaves identically to rand.New(rand.NewSource(s)) for every derived
// draw, and its own NormFloat64 and Float64 equal rand.Rand's. Not safe
// for concurrent use.
//
// Seeding is lazy: Seed only records the normalized Lehmer seed, and the
// register words are filled fillBlock outputs at a time, each before its
// first read. The generator's access pattern makes this exact: output k
// reads the seeded words at positions rngLen-rngTap-1-k (the feed) and,
// for k < rngTap, rngLen-1-k (the tap); every later read hits a word the
// stream already wrote or filled. A run that consumes only a few dozen
// draws — the common case for the study's short segments — therefore
// computes a few dozen seeded words instead of all 607.
type Source struct {
	tap, feed int
	// fillAt is the feed index at which the next draw must fill: while
	// feed <= fillAt, the feed word the step reads (feed-1) is unseeded.
	// It starts at rngLen-rngTap and drops a block per fill, to -1 once
	// every seeded word is in place.
	fillAt int
	x0     uint64
	vec    [rngLen]int64
}

// fillBlock is how many outputs' seeded words one fill computes. A block
// amortizes the call and the loop set-up over its outputs; the words a
// run fills past its last draw, at most fillBlock-1 outputs' worth, are
// never read.
const fillBlock = 32

// NewSource returns a Source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
// The register fills lazily as outputs are drawn, so Seed itself is O(1).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.fillAt = rngLen - rngTap
}

// fill computes the seeded words of the next fillBlock outputs. The
// draw that calls it has feed == fillAt; it and the draws after it read
// feed words fillAt-1, fillAt-2, ... first, and those among the first
// rngTap outputs also read the tap word rngTap above their feed word.
// Tap words lie at or above rngLen-rngTap and stay valid for their
// second read, as feed words after the feed wraps: fills write the
// value eager seeding would have.
func (s *Source) fill() {
	hi := s.fillAt
	lo := max(hi-fillBlock, 0)
	s.fillWords(lo, hi)
	s.fillWords(max(lo+rngTap, rngLen-rngTap), hi+rngTap)
	s.fillAt = lo
	if lo == 0 {
		s.fillAt = -1
	}
}

// fillWords computes seeded register words [lo, hi): word i packs the
// Lehmer positions 3i+21, 3i+22 and 3i+23 into 63 bits and XORs the
// stdlib's cooked constant.
func (s *Source) fillWords(lo, hi int) {
	if lo >= hi {
		return
	}
	vec, ck, p := s.vec[lo:hi], cooked[lo:hi], pow[3*lo+20:3*hi+20]
	x0 := s.x0
	for i := range vec {
		a := mulmod31(p[3*i], x0)
		b := mulmod31(p[3*i+1], x0)
		c := mulmod31(p[3*i+2], x0)
		vec[i] = (int64(a)<<40 ^ int64(b)<<20 ^ int64(c)) ^ ck[i]
	}
}

// step advances the lagged-Fibonacci register one output. The caller
// fills first when feed <= fillAt; step itself is small enough to
// inline into every draw.
func (s *Source) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Uint64 advances the register one step.
func (s *Source) Uint64() uint64 {
	if s.feed <= s.fillAt {
		s.fill()
	}
	return s.step()
}

// Int63 returns the low 63 bits of the next step.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Float64 returns a draw in [0, 1), bit-identical to rand.Rand.Float64
// over this source: Int63 scaled by 2^-63, redrawn in the O(never) case
// that the division rounds up to 1.
func (s *Source) Float64() float64 {
again:
	if s.feed <= s.fillAt {
		s.fill()
	}
	f := float64(int64(s.step()&rngMask)) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}
