package telemetry

// Exemplars bind concrete observations to histogram buckets: each
// bucket retains the most recent trace id (plus a small tenant-free
// label set) that landed in it, so a latency alert can point at an
// actual offending request instead of an anonymous count. Storage is a
// single atomic pointer per bucket — Observe stays two atomic adds and
// ObserveWithExemplar adds one pointer store — and rendering follows
// the OpenMetrics exemplar syntax:
//
//	name_bucket{le="0.25"} 31 # {trace_id="7ad6..."} 0.21 1754640000.125
//
// ParsePrometheus reads the suffix back (promparse.go), so exemplars
// survive the monitor's federation loop instead of breaking it.

import (
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Exemplar is one retained observation: the label set that identifies
// it (trace_id first, by convention), the observed value in exposition
// units (seconds for latency histograms), and an optional unix
// timestamp. Labels must be tenant-free: trace and span ids, endpoint
// families, backend URLs — never API keys or caller identity.
type Exemplar struct {
	Labels []Label
	Value  float64
	TS     float64 // unix seconds; meaningful only when HasTS
	HasTS  bool
}

// TraceID returns the exemplar's trace_id label value, "" when absent.
func (e *Exemplar) TraceID() string {
	if e == nil {
		return ""
	}
	for _, l := range e.Labels {
		if l.Key == "trace_id" {
			return l.Value
		}
	}
	return ""
}

// ObserveWithExemplar records one duration exactly as Observe does and
// additionally retains (trace, attrs) as the bucket's exemplar. A zero
// trace id degrades to plain Observe — callers need no branch for the
// sampled-out case.
func (h *Histogram) ObserveWithExemplar(d time.Duration, trace TraceID, attrs ...Attr) {
	idx := bucketIndex(d)
	if d > 0 {
		h.sumNS.Add(int64(d))
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	if trace == 0 {
		return
	}
	labels := make([]Label, 0, 1+len(attrs))
	labels = append(labels, Label{Key: "trace_id", Value: trace.String()})
	for _, a := range attrs {
		labels = append(labels, Label{Key: a.Key, Value: a.Value})
	}
	ex := &Exemplar{
		Labels: labels,
		Value:  float64(d) / 1e9,
		TS:     float64(time.Now().UnixNano()) / 1e9,
		HasTS:  true,
	}
	h.ex[idx].Store(ex)
}

// Exemplar returns the retained exemplar for bucket i, nil when none.
func (h *Histogram) Exemplar(i int) *Exemplar {
	if i < 0 || i >= histBuckets {
		return nil
	}
	return h.ex[i].Load()
}

// bucketIndex maps a duration to its log2 bucket, the indexing rule
// Observe documents: non-positive durations land in bucket 0.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(d) - 1)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// appendExemplar renders e in OpenMetrics exemplar syntax (leading
// " # "), appending to b. Timestamps render in shortest 'f' form so a
// parse/render cycle reproduces the float exactly without exponent
// notation.
func appendExemplar(b *strings.Builder, e *Exemplar) {
	b.WriteString(" # ")
	writeLabels(b, e.Labels)
	b.WriteByte(' ')
	b.WriteString(formatPromValue(e.Value))
	if e.HasTS {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(e.TS, 'f', -1, 64))
	}
}
