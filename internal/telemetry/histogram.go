package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count: bucket i holds observations in
// (2^(i-1), 2^i] nanoseconds, so 64 buckets span 1ns to ~584 years —
// every latency this system can produce, with ~2x resolution, in a
// fixed 512-byte array of atomics.
const histBuckets = 64

// Histogram is a lock-free log2-bucketed latency histogram: Observe is
// two atomic adds and fits hot paths (a measurement cell, an HTTP
// exchange); Snapshot and the quantile helpers read without stopping
// writers. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	ex     [histBuckets]atomic.Pointer[Exemplar] // each bucket's latest exemplar, nil when none
}

// Observe records one duration. Non-positive durations land in the
// first bucket, so a degenerate clock reading never panics or skews
// the upper buckets.
func (h *Histogram) Observe(d time.Duration) {
	idx := 0
	if d > 0 {
		idx = bits.Len64(uint64(d) - 1) // ceil(log2), so 2^k lands in bucket k
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
		h.sumNS.Add(int64(d))
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram. Because
// writers proceed during the copy, the per-bucket counts may disagree
// with Count by the handful of observations in flight; all summaries
// are computed against the bucket sum so they stay internally
// consistent.
type HistogramSnapshot struct {
	Counts [histBuckets]int64
	Count  int64
	SumNS  int64
}

// Snapshot copies the histogram counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumNS = h.sumNS.Load()
	return s
}

// BucketBound returns bucket i's inclusive upper bound.
func BucketBound(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i))
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) — a conservative estimate within 2x of the true
// value, which is the fidelity log2 bucketing buys. Returns 0 when
// empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Mean returns the arithmetic mean observation.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Summary is the operator-facing digest of a histogram.
type Summary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Summary digests the snapshot into count, mean, and p50/p90/p99.
func (s HistogramSnapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// Summary digests the histogram's current state.
func (h *Histogram) Summary() Summary { return h.Snapshot().Summary() }

// Registry maps metric family names to histograms and returns them as
// Prometheus histogram families for RenderPrometheus. A family is
// either unlabeled (one histogram) or labeled (one histogram per label
// value, e.g. one per backend). Register calls are idempotent: the
// first caller of a name creates the family, later callers get the
// same histogram. Each package that exports histograms owns its
// registry, so a page holds only its own families.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name, help string
	labelKey   string
	hists      map[string]*Histogram // label value -> histogram; "" for unlabeled
}

// labeledHist is one series of a family.
type labeledHist struct {
	value string
	h     *Histogram
}

// series returns the family's series sorted by label value. Callers hold
// the registry lock: registration adds to hists while scrapes render.
func (f *family) series() []labeledHist {
	out := make([]labeledHist, 0, len(f.hists))
	for lv, h := range f.hists {
		out = append(out, labeledHist{lv, h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Histogram returns the unlabeled histogram family name, creating it on
// first use. Panics if name already exists as a labeled family — the
// two shapes cannot share one Prometheus family.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.histogram(name, help, "", "")
}

// LabeledHistogram returns the histogram for one label value of family
// name (e.g. backend="http://10.0.0.1:8722"), creating family and
// series on first use.
func (r *Registry) LabeledHistogram(name, help, labelKey, labelValue string) *Histogram {
	if labelKey == "" {
		panic("telemetry: LabeledHistogram requires a label key")
	}
	return r.histogram(name, help, labelKey, labelValue)
}

func (r *Registry) histogram(name, help, labelKey, labelValue string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, labelKey: labelKey, hists: make(map[string]*Histogram)}
		r.fams[name] = f
	}
	if f.labelKey != labelKey {
		panic(fmt.Sprintf("telemetry: family %s registered with label %q, requested %q", name, f.labelKey, labelKey))
	}
	h, ok := f.hists[labelValue]
	if !ok {
		h = &Histogram{}
		f.hists[labelValue] = h
	}
	return h
}

// Families returns every family as a Prometheus histogram: cumulative
// _bucket samples with le in seconds, then _sum and _count, the bucket
// sum standing for the +Inf bucket and the count. Families and label
// values come in sorted order so scrapes are diffable; empty buckets
// below a series' top observed bucket are skipped and those above it
// elided, keeping the page proportional to the observed range. A
// bucket's exemplar rides on its sample.
func (r *Registry) Families() []MetricFamily {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	series := make([][]labeledHist, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
		series[i] = fams[i].series()
	}
	r.mu.Unlock()

	out := make([]MetricFamily, len(fams))
	for fi, f := range fams {
		mf := MetricFamily{Name: f.name, Help: f.help, Type: "histogram"}
		bucketName, sumName, countName := f.name+"_bucket", f.name+"_sum", f.name+"_count"
		for _, sr := range series[fi] {
			var labels []Label
			if f.labelKey != "" {
				labels = []Label{{Key: f.labelKey, Value: sr.value}}
			}
			bucket := func(le string, cum int64, ex *Exemplar) {
				mf.Samples = append(mf.Samples, MetricPoint{Name: bucketName,
					Labels: append(labels[:len(labels):len(labels)], Label{Key: "le", Value: le}),
					Value:  float64(cum), Exemplar: ex})
			}
			s := sr.h.Snapshot()
			top := 0
			for i, c := range s.Counts {
				if c > 0 {
					top = i
				}
			}
			var cum int64
			for i := 0; i <= top; i++ {
				if s.Counts[i] == 0 && i != top {
					continue
				}
				cum += s.Counts[i]
				bucket(strconv.FormatFloat(float64(BucketBound(i))/1e9, 'g', -1, 64), cum, sr.h.ex[i].Load())
			}
			bucket("+Inf", cum, nil)
			mf.Samples = append(mf.Samples,
				MetricPoint{Name: sumName, Labels: labels, Value: float64(s.SumNS) / 1e9},
				MetricPoint{Name: countName, Labels: labels, Value: float64(cum)})
		}
		out[fi] = mf
	}
	return out
}
