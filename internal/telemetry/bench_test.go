package telemetry

import (
	"context"
	"os"
	"testing"
	"time"
)

// BenchmarkHistogramObserve is the hot-path cost floor: two atomic
// adds. Anything above ~10ns/op means the lock-free claim regressed.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkHistogramObserveParallel measures contention across cores —
// the shape /metricsz instruments see under a parallel MeasureBatch.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		d := time.Millisecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}

// BenchmarkSpanStartEnd is the per-span tracing cost — id generation,
// attr copy, monotonic clock reads and retention — once for each reason
// a span can be held: keep-all (straight to the ring), tail-sampled at
// 0.05 over lease-shaped traces (a root and 16 children, judged when
// the root ends), and spans of one pinned trace.
func BenchmarkSpanStartEnd(b *testing.B) {
	ctx := context.Background()
	b.Run("keep-all", func(b *testing.B) {
		tr := NewTracer(DefaultSpanBuffer)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := tr.StartSpan(ctx, "bench", Int("i", i))
			s.End()
		}
	})
	b.Run("tail-sampled", func(b *testing.B) {
		tr := NewTracer(DefaultSpanBuffer)
		tr.SetTailPolicy(&TailPolicy{SlowSpan: 2 * time.Second, KeepErrors: true, SampleRate: 0.05})
		b.ReportAllocs()
		// One op is one span: every 17th op opens a lease root, the next
		// 16 are its cells, and the last cell's op also ends the root.
		var lease context.Context
		var root *Span
		for i := 0; i < b.N; i++ {
			if i%17 == 0 {
				lease, root = tr.StartSpan(ctx, "lease")
				continue
			}
			_, s := tr.StartSpan(lease, "cell", Int("i", i))
			s.End()
			if i%17 == 16 {
				root.End()
			}
		}
		root.End()
	})
	b.Run("pinned", func(b *testing.B) {
		tr := NewTracer(DefaultSpanBuffer)
		trace, root := tr.StartSpan(ctx, "breach")
		tr.Pin(root.Trace())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := tr.StartSpan(trace, "bench", Int("i", i))
			s.End()
		}
		root.End()
	})
}

// BenchmarkSpanDisabled is the overhead with no tracer attached — the
// default in every production path — and must stay near zero.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := tr.StartSpan(ctx, "bench")
		s.End()
	}
}

// BenchmarkParsePrometheus is the monitor's per-scrape read cost: one
// parse of a /metricsz page recorded from a deployed daemon (store, SLO
// engine, 5% tail sampling, one sealed study, exemplars on five
// endpoint families), 121 lines and about 8 KB.
func BenchmarkParsePrometheus(b *testing.B) {
	page, err := os.ReadFile("testdata/metricsz_deployed.txt")
	if err != nil {
		b.Fatal(err)
	}
	text := string(page)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePrometheus(text); err != nil {
			b.Fatal(err)
		}
	}
}
