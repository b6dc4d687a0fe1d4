package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	// Exact powers of two land in their own bucket (inclusive upper
	// bound); the next nanosecond spills into the next bucket.
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	h.Observe(1024)
	h.Observe(1025)
	h.Observe(0)
	h.Observe(-5)
	s := h.Snapshot()
	want := map[int]int64{0: 3, 1: 1, 2: 2, 10: 1, 11: 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d: got %d want %d", i, c, want[i])
		}
	}
	if s.Count != 8 {
		t.Fatalf("count %d want 8", s.Count)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond) // bucket bound 2^20ns ≈ 1.05ms
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 > 2*time.Millisecond {
		t.Errorf("p50 %v, want ~1ms bucket bound", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 500*time.Millisecond {
		t.Errorf("p99 %v, want ~1s bucket bound", p99)
	}
	sum := s.Summary()
	if sum.Count != 100 || sum.P90 > sum.P99 || sum.P50 > sum.P90 {
		t.Errorf("summary not monotone: %+v", sum)
	}
	mean := s.Mean()
	if mean < 50*time.Millisecond || mean > 200*time.Millisecond {
		t.Errorf("mean %v, want ~100.9ms", mean)
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	var h Histogram
	h.Observe(time.Duration(1<<63 - 1))
	s := h.Snapshot()
	if s.Counts[histBuckets-1] != 1 {
		t.Fatalf("max duration not clamped into last bucket")
	}
}

// TestHistogramConcurrent exercises parallel writers against snapshot
// readers under -race: Observe must stay lock-free-correct and
// Snapshot must never see torn totals exceeding what was written.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count > writers*per {
				t.Errorf("snapshot count %d exceeds writes %d", s.Count, writers*per)
				return
			}
			s.Summary()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}
	for h.Snapshot().Count < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count; got != writers*per {
		t.Fatalf("final count %d want %d", got, writers*per)
	}
}

func TestRegistryIdempotentAndLabeled(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("x_seconds", "help")
	b := r.Histogram("x_seconds", "help")
	if a != b {
		t.Fatal("same name returned distinct histograms")
	}
	l1 := r.LabeledHistogram("y_seconds", "help", "backend", "a")
	l2 := r.LabeledHistogram("y_seconds", "help", "backend", "b")
	if l1 == l2 {
		t.Fatal("distinct label values share a histogram")
	}
	if r.LabeledHistogram("y_seconds", "help", "backend", "a") != l1 {
		t.Fatal("labeled lookup not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mixing labeled and unlabeled shapes should panic")
		}
	}()
	r.LabeledHistogram("x_seconds", "help", "backend", "a")
}

func TestRegistryPrometheusShape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("demo_seconds", "A demo histogram.")
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	lb := r.LabeledHistogram("per_backend_seconds", "Per backend.", "backend", "http://a")
	lb.Observe(10 * time.Millisecond)

	var b strings.Builder
	RenderPrometheus(&b, r.Families())
	out := b.String()
	for _, want := range []string{
		"# HELP demo_seconds A demo histogram.",
		"# TYPE demo_seconds histogram",
		`demo_seconds_bucket{le="+Inf"} 2`,
		"demo_seconds_count 2",
		"# TYPE per_backend_seconds histogram",
		`per_backend_seconds_bucket{backend="http://a",le="+Inf"} 1`,
		`per_backend_seconds_count{backend="http://a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryScrapeDuringRegistration: a scrape that runs while a new
// label value registers must not read a family's series map unlocked
// (the race detector holds this; the first request to a new endpoint
// family registers its series while /metricsz may be rendering).
func TestRegistryScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	r.LabeledHistogram("x_seconds", "x", "k", "a")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.LabeledHistogram("x_seconds", "x", "k", strings.Repeat("b", i+1)).Observe(time.Millisecond)
		}
	}()
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.Reset()
		RenderPrometheus(&b, r.Families())
	}
	wg.Wait()
	b.Reset()
	RenderPrometheus(&b, r.Families())
	if got := strings.Count(b.String(), "\nx_seconds_count{"); got != 201 {
		t.Fatalf("%d series on the page after registration, want 201", got)
	}
}
