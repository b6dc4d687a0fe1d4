package telemetry

import (
	"context"
	"testing"
	"time"
)

// endWith forces a span's recorded duration for deterministic verdicts.
func endWith(s *Span, d time.Duration) {
	s.start = time.Now().Add(-d)
	s.End()
}

func TestTailSamplingKeepsSlowTraces(t *testing.T) {
	tr := NewTracer(64)
	tr.SetTailPolicy(&TailPolicy{SlowSpan: 100 * time.Millisecond, SampleRate: 0})

	// Fast trace: root + child, both quick — dropped entirely.
	ctx, root := tr.StartSpan(context.Background(), "fast.root")
	_, child := tr.StartSpan(ctx, "fast.child")
	endWith(child, time.Millisecond)
	endWith(root, 2*time.Millisecond)
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("fast trace retained %d spans, want 0", n)
	}

	// Slow trace: the child breaches, so the WHOLE trace is kept —
	// including the fast root that ends after it.
	ctx, root = tr.StartSpan(context.Background(), "slow.root")
	_, child = tr.StartSpan(ctx, "slow.child")
	endWith(child, 250*time.Millisecond)
	endWith(root, time.Millisecond)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("slow trace retained %d spans, want 2", len(spans))
	}
	kept, dropped := tr.TailStats()
	if kept != 2 || dropped != 2 {
		t.Fatalf("tail stats kept=%d dropped=%d, want 2/2", kept, dropped)
	}
}

func TestTailSamplingKeepsErrorTraces(t *testing.T) {
	tr := NewTracer(64)
	tr.SetTailPolicy(&TailPolicy{KeepErrors: true, SampleRate: 0})
	_, s := tr.StartSpan(context.Background(), "op")
	s.Annotate(String("error", "boom"))
	endWith(s, time.Microsecond)
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("error trace retained %d spans, want 1", n)
	}
}

func TestTailSamplingProbabilisticIsDeterministic(t *testing.T) {
	// Same trace ids, two tracers: identical verdicts, and a rate of
	// 0.5 keeps roughly half.
	verdicts := func() (kept int, which []bool) {
		tr := NewTracer(4096)
		tr.SetTailPolicy(&TailPolicy{SampleRate: 0.5})
		for i := 1; i <= 200; i++ {
			trace := TraceID(i * 7919)
			ctx := context.Background()
			ctx, s := tr.StartRemote(ctx, trace, 0, "op")
			_ = ctx
			endWith(s, time.Microsecond)
			n := len(tr.TraceSpans(trace))
			which = append(which, n == 1)
			if n == 1 {
				kept++
			}
		}
		return
	}
	k1, w1 := verdicts()
	k2, w2 := verdicts()
	if k1 != k2 {
		t.Fatalf("verdicts not deterministic: %d vs %d", k1, k2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("trace %d verdict differs between tracers", i)
		}
	}
	if k1 < 60 || k1 > 140 {
		t.Fatalf("rate 0.5 kept %d/200, far from half", k1)
	}
}

func TestTailSamplingBoundedPending(t *testing.T) {
	tr := NewTracer(16)
	tr.SetTailPolicy(&TailPolicy{SampleRate: 1})
	// Start many roots and never end them: the held table must stay
	// bounded by early verdicts, not grow without limit.
	for i := 0; i < 3*maxWaitingTraces; i++ {
		tr.StartSpan(context.Background(), "leaky")
	}
	tr.mu.Lock()
	n := len(tr.held)
	tr.mu.Unlock()
	if n > maxWaitingTraces {
		t.Fatalf("held table grew to %d traces, bound is %d", n, maxWaitingTraces)
	}
}
