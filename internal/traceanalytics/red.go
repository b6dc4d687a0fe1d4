package traceanalytics

// Per-operation RED (rate / errors / duration) aggregation. Every
// harvested span feeds the aggregate for its (span name, source
// backend) pair; percentiles come from a bounded ring of recent
// durations, rate from the observed span-start extent.

import (
	"sort"
	"time"

	"repro/internal/telemetry"
)

type redKey struct {
	name   string
	source string
}

type redAgg struct {
	count  int64
	errors int64
	durs   *telemetry.Ring[float64] // milliseconds
	first  time.Time                // earliest span start seen
	last   time.Time                // latest span start seen
}

func (r *redAgg) observe(s Span) {
	r.count++
	if s.Attr("error") != "" {
		r.errors++
	}
	r.durs.Push(float64(s.Dur) / 1e6)
	if r.first.IsZero() || s.Start.Before(r.first) {
		r.first = s.Start
	}
	if s.Start.After(r.last) {
		r.last = s.Start
	}
}

// REDStat is one operation's aggregate on one backend.
type REDStat struct {
	Name       string  `json:"name"`
	Backend    string  `json:"backend"`
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	RatePerSec float64 `json:"rate_per_sec"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
}

func (r *redAgg) stat(k redKey) REDStat {
	st := REDStat{Name: k.name, Backend: k.source, Count: r.count, Errors: r.errors}
	if span := r.last.Sub(r.first); span > 0 && r.count > 1 {
		st.RatePerSec = float64(r.count-1) / span.Seconds()
	}
	if r.durs.Len() == 0 {
		return st
	}
	sorted := r.durs.Copy()
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	st.MeanMS = sum / float64(len(sorted))
	st.P50MS = quantile(sorted, 0.50)
	st.P90MS = quantile(sorted, 0.90)
	st.P99MS = quantile(sorted, 0.99)
	return st
}

// quantile interpolates q in [0,1] over an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
