// Package monitor is the fleet-watching subsystem: a scrape federation
// loop that polls each backend's /healthz and /metricsz on a jittered
// interval, fixed-size ring buffers holding the resulting time
// series, and a detector that evaluates threshold and statistical rules
// over them — the latter reusing internal/stats, so the system flags
// its own regressions the way the paper flags measurement noise: with
// confidence intervals, not vibes. Alerts move through a
// pending→firing→resolved state machine and surface via slog,
// GET /v1/alertz, the /debug/dashboard HTML page, and the powerperfmon
// CLI.
//
// The design budget follows Diamond et al. ("What Is the Cost of Energy
// Monitoring?"): observation must be overhead-gated. Everything here is
// bounded — rings are fixed-size, series per backend are capped, and
// the scrape loop is measured by the monitored-vs-unmonitored study
// benchmark (<2% wall-time overhead, recorded in BENCH_pr5.json).
package monitor

import "time"

// Sample is one observation of one series: a value at a scrape time.
type Sample struct {
	T time.Time
	V float64
}

// Ring is a fixed-capacity time-series buffer. Once full, each push
// evicts the oldest sample, so memory per series is constant no matter
// how long the monitor runs. Not safe for concurrent use; the store
// serializes access.
type Ring struct {
	buf  []Sample
	head int // index of the next write
	n    int // live samples, <= len(buf)
}

// NewRing builds a ring holding up to capacity samples (minimum 2: a
// series you cannot delta is not a series).
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	return &Ring{buf: make([]Sample, capacity)}
}

// Push appends a sample, evicting the oldest when full.
func (r *Ring) Push(s Sample) {
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len returns the live sample count.
func (r *Ring) Len() int { return r.n }

// At returns sample i, 0 being the oldest live sample.
func (r *Ring) At(i int) Sample {
	if i < 0 || i >= r.n {
		return Sample{}
	}
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	return r.buf[(start+i)%len(r.buf)]
}

// Last returns the newest sample and whether the ring is non-empty.
func (r *Ring) Last() (Sample, bool) {
	if r.n == 0 {
		return Sample{}, false
	}
	return r.At(r.n - 1), true
}

// Samples copies the live samples oldest-first.
func (r *Ring) Samples() []Sample {
	out := make([]Sample, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.At(i)
	}
	return out
}

// Tail copies the newest n samples oldest-first (all of them when the
// ring holds fewer).
func (r *Ring) Tail(n int) []Sample {
	if n > r.n {
		n = r.n
	}
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		out[i] = r.At(r.n - n + i)
	}
	return out
}

// Values extracts just the sample values, oldest-first.
func Values(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.V
	}
	return out
}

// CounterDeltas converts cumulative counter samples into per-interval
// increases, handling counter resets (a process restart zeroes every
// counter): a drop is read as a reset, and the post-reset value counts
// as that interval's whole increase — the convention Prometheus rate()
// uses. len(result) == len(samples)-1.
func CounterDeltas(samples []Sample) []float64 {
	if len(samples) < 2 {
		return nil
	}
	out := make([]float64, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		d := samples[i].V - samples[i-1].V
		if d < 0 { // reset
			d = samples[i].V
		}
		out[i-1] = d
	}
	return out
}

// Rate returns a counter's reset-corrected increase per second over the
// sampled span, or 0 when the span is degenerate.
func Rate(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	elapsed := samples[len(samples)-1].T.Sub(samples[0].T).Seconds()
	if elapsed <= 0 {
		return 0
	}
	var total float64
	for _, d := range CounterDeltas(samples) {
		total += d
	}
	return total / elapsed
}
