package telemetry

import (
	"context"
	"slices"
	"testing"
	"time"
)

// FuzzRetention drives a small tracer through arbitrary sequences of
// StartSpan, End, Pin and Unpin — random nesting, slow and errored
// ends, with and without a tail policy — and checks the retention
// contract through the public API after every step:
//
//   - Snapshot holds at most ring capacity + maxPinned spans, none twice;
//   - every span that ended while its trace was pinned resolves through
//     TraceSpans until the trace's last Unpin;
//   - the sampler's kept + dropped never exceeds the spans ended;
//   - with no policy and no pins, Snapshot is exactly the last
//     capacity spans in end order.
func FuzzRetention(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 2, 1, 0, 1, 1, 0})
	f.Add([]byte{1, 1, 0, 1, 0, 4, 0, 0, 1, 1, 2, 0, 3, 0, 1, 2})
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 4, 0, 1, 1, 1, 0, 2, 0, 1, 2, 4, 0, 9, 0})
	f.Add([]byte{5, 3, 0, 4, 0, 4, 0, 0, 1, 1, 0, 5, 0, 1, 0, 0, 1, 1, 1, 2, 1, 3, 0})
	f.Add([]byte{2, 7, 0, 1, 3, 0, 1, 4, 0, 0, 0, 6, 1, 0, 1, 5, 0, 2, 9, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		// At most one span per step, so no trace can outgrow one pinned
		// trace's span store and every pinned-era span must resolve.
		const maxSteps = 300
		capacity := 1 + int(in[0]%8)
		tr := NewTracer(capacity)
		const slow = time.Hour
		policy := in[1] % 4
		switch policy {
		case 1:
			tr.SetTailPolicy(&TailPolicy{SlowSpan: slow, KeepErrors: true})
		case 2:
			tr.SetTailPolicy(&TailPolicy{SlowSpan: slow, SampleRate: 0.5})
		case 3:
			tr.SetTailPolicy(&TailPolicy{KeepErrors: true, SampleRate: 1})
		}
		in = in[2:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}

		var (
			open       []*Span
			traces     []TraceID
			ended      []SpanID // every ended span, in end order
			refs       = map[TraceID]int{}
			mustKeep   = map[TraceID]map[SpanID]bool{}
			everPinned bool
		)
		for step := 0; step < maxSteps && len(in) > 0; step++ {
			switch next() % 4 {
			case 0: // start a root, or a child of an open span
				ctx := context.Background()
				if k := next(); k%2 == 1 && len(open) > 0 {
					ctx = ContextWithSpan(ctx, open[(k/2)%len(open)])
				}
				_, s := tr.StartSpan(ctx, "op")
				open = append(open, s)
				if !slices.Contains(traces, s.Trace()) {
					traces = append(traces, s.Trace())
				}
			case 1: // end an open span: quick, slow or errored
				if len(open) == 0 {
					continue
				}
				i := next() % len(open)
				s := open[i]
				open = append(open[:i], open[i+1:]...)
				switch next() % 3 {
				case 0:
					s.End()
				case 1:
					endWith(s, 2*slow)
				case 2:
					s.Annotate(String("error", "boom"))
					s.End()
				}
				ended = append(ended, s.ID())
				if refs[s.Trace()] > 0 {
					mustKeep[s.Trace()][s.ID()] = true
				}
			case 2: // pin a known trace
				if len(traces) == 0 {
					continue
				}
				id := traces[next()%len(traces)]
				tr.Pin(id)
				everPinned = true
				if refs[id] > 0 {
					refs[id]++
				} else if len(refs) < maxPinnedTraces {
					refs[id] = 1
					mustKeep[id] = map[SpanID]bool{}
				}
			case 3: // unpin a known trace
				if len(traces) == 0 {
					continue
				}
				id := traces[next()%len(traces)]
				tr.Unpin(id)
				if refs[id] > 0 {
					if refs[id]--; refs[id] == 0 {
						delete(refs, id)
						delete(mustKeep, id)
					}
				}
			}

			snap := tr.Snapshot()
			if max := capacity + maxPinnedTraces*maxPinnedSpans; len(snap) > max {
				t.Fatalf("step %d: snapshot holds %d spans, bound is %d", step, len(snap), max)
			}
			seen := make(map[SpanID]bool, len(snap))
			for _, d := range snap {
				if seen[d.ID] {
					t.Fatalf("step %d: span %s twice in the snapshot", step, d.ID)
				}
				seen[d.ID] = true
			}
			if got := tr.PinnedTraces(); got != len(refs) {
				t.Fatalf("step %d: %d traces pinned, want %d", step, got, len(refs))
			}
			for id, want := range mustKeep {
				have := map[SpanID]bool{}
				for _, d := range tr.TraceSpans(id) {
					if d.Trace != id {
						t.Fatalf("step %d: TraceSpans(%s) returned a span of %s", step, id, d.Trace)
					}
					have[d.ID] = true
				}
				for sid := range want {
					if !have[sid] {
						t.Fatalf("step %d: pinned trace %s lost span %s", step, id, sid)
					}
				}
			}
			if kept, dropped := tr.TailStats(); kept+dropped > int64(len(ended)) {
				t.Fatalf("step %d: sampler kept %d + dropped %d of %d ended spans", step, kept, dropped, len(ended))
			}
			if policy == 0 && !everPinned {
				want := ended
				if len(want) > capacity {
					want = want[len(want)-capacity:]
				}
				if len(snap) != len(want) {
					t.Fatalf("step %d: snapshot holds %d spans, want the last %d ended", step, len(snap), len(want))
				}
				for i, d := range snap {
					if d.ID != want[i] {
						t.Fatalf("step %d: snapshot[%d] = %s, want %s", step, i, d.ID, want[i])
					}
				}
			}
		}
	})
}
