package telemetry

// Tail-based trace sampling. Head sampling decides at span start, when
// nothing is known; tail sampling decides at trace completion, when
// duration and errors are: traces containing a slow span (at or over
// the SLO threshold) or an error keep every span, the unremarkable
// rest keep a deterministic fraction. Retention then scales with
// traffic while the ring keeps exactly the traces an SLO page needs.
//
// Mechanics: with a policy installed, each trace gets a held entry
// (tracer.go) at its first span start, and its completed spans wait
// there until its last open span ends (starts and ends are counted, so
// well-nested usage needs no explicit root marker); the verdict then
// applies to the whole trace at once. The table is bounded — past
// maxWaitingTraces the oldest waiting trace is judged early, and so is
// one that buffers maxWaitingSpans, on the evidence so far; spans of a
// trace judged that way fall back to per-span verdicts — so a span leak
// cannot grow it without limit.

import (
	"time"
)

// TailPolicy configures tail-based retention. The zero value keeps
// nothing but slow/error traces; a nil policy on the tracer keeps
// everything (the default, and the pre-sampling behavior).
type TailPolicy struct {
	// SlowSpan keeps the whole trace when any span's duration reaches
	// it — wire this to the latency SLO threshold so every
	// budget-burning request retains its full trace. 0 disables the
	// slow rule.
	SlowSpan time.Duration
	// KeepErrors keeps traces where any span carries an "error" attr.
	KeepErrors bool
	// SampleRate is the keep fraction for unremarkable traces, in
	// [0,1]. The verdict is a deterministic hash of the trace id, so
	// every process in a fleet keeps or drops the same trace.
	SampleRate float64
}

// Bounds of the traces waiting for a verdict: at most maxWaitingTraces
// wait at once, and one waits for at most maxWaitingSpans spans.
const (
	maxWaitingTraces = 256
	maxWaitingSpans  = 128
)

// spanKeep reports whether this one span forces whole-trace retention
// (never, under a nil policy).
func (p *TailPolicy) spanKeep(d SpanData) bool {
	if p == nil {
		return false
	}
	if p.SlowSpan > 0 && d.Dur >= p.SlowSpan {
		return true
	}
	if p.KeepErrors {
		for _, a := range d.Attrs {
			if a.Key == "error" {
				return true
			}
		}
	}
	return false
}

// hashKeep is the probabilistic verdict: a splitmix64 finalizer over
// the trace id against the rate threshold, deterministic fleet-wide. A
// nil policy keeps everything.
func (p *TailPolicy) hashKeep(trace TraceID) bool {
	if p == nil || p.SampleRate >= 1 {
		return true
	}
	if p.SampleRate <= 0 {
		return false
	}
	x := uint64(trace)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x) < p.SampleRate*float64(1<<64)
}

// SetTailPolicy installs the tail-sampling policy; nil, a new tracer's
// default, keeps every span. Install it before traffic: spans started
// before it are judged alone, and traces still waiting when it is
// removed are kept as they complete.
func (t *Tracer) SetTailPolicy(p *TailPolicy) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.policy = p
	t.mu.Unlock()
}

// TailStats returns how many spans the sampler has committed and
// dropped since the tracer was built (both zero with no policy ever
// installed).
func (t *Tracer) TailStats() (kept, dropped int64) {
	if t == nil {
		return 0, 0
	}
	return t.tailKept.Load(), t.tailDropped.Load()
}

// holdLocked returns trace's held entry, opening one if needed. When
// maxWaitingTraces traces already wait, the oldest of them is judged
// early first; pinned traces never are. Caller holds t.mu.
func (t *Tracer) holdLocked(trace TraceID) *heldTrace {
	if h := t.held[trace]; h != nil {
		return h
	}
	if len(t.held)-t.npinned >= maxWaitingTraces {
		var oldest TraceID
		var o *heldTrace
		for id, h := range t.held {
			if h.pins == 0 && (o == nil || h.seq < o.seq) {
				oldest, o = id, h
			}
		}
		delete(t.held, oldest)
		t.judgeLocked(oldest, o.keep, o.spans)
	}
	t.seq++
	h := &heldTrace{seq: t.seq}
	t.held[trace] = h
	return h
}

// judgeLocked applies the verdict to spans of one trace that is no
// longer held: all of them go to the ring, or none do. Caller holds
// t.mu.
func (t *Tracer) judgeLocked(trace TraceID, keep bool, spans []SpanData) {
	if keep || t.policy.hashKeep(trace) {
		for _, d := range spans {
			t.ring.Push(d)
		}
		t.tailKept.Add(int64(len(spans)))
		return
	}
	t.tailDropped.Add(int64(len(spans)))
}
