package telemetry

import (
	"context"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer mints spans and retains the most recently completed ones in a
// bounded ring, the in-process flight recorder behind the /v1/traces
// endpoint and fullstudy's -trace-out export. A nil *Tracer is a valid
// disabled tracer: StartSpan returns a nil span and every span method is
// nil-safe, so instrumented code needs no branches.
type Tracer struct {
	// ids is the span/trace id source: a splitmix64 walk from a
	// process-unique base, so ids are unique within a process and
	// overwhelmingly likely unique across a fleet.
	ids atomic.Uint64

	// Retention, all under mu. A completed span goes to ring unless its
	// trace is in held: waiting for a tail verdict (sampler.go) or
	// pinned (pin.go). policy nil keeps every span.
	mu      sync.Mutex
	ring    *Ring[SpanData]
	held    map[TraceID]*heldTrace
	seq     uint64 // held entries opened so far, for oldest-first verdicts
	npinned int    // held entries with pin references
	policy  *TailPolicy

	tailKept    atomic.Int64
	tailDropped atomic.Int64
}

// heldTrace is one trace whose spans the ring cannot take yet, with the
// reasons why: under a tail policy the trace waits while open > 0 and
// keep records a slow or errored span already seen; pins > 0 keeps its
// spans here, out of the ring and out of the verdict, until the last
// Unpin.
type heldTrace struct {
	seq   uint64 // opening order; the oldest waiting trace is judged first
	open  int    // spans started minus ended, counted under a tail policy
	keep  bool
	pins  int
	spans []SpanData
}

// DefaultSpanBuffer is the completed-span retention when NewTracer is
// given a non-positive capacity.
const DefaultSpanBuffer = 4096

// NewTracer builds an enabled tracer retaining up to capacity completed
// spans (<= 0 selects DefaultSpanBuffer).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanBuffer
	}
	t := &Tracer{ring: NewRing[SpanData](capacity), held: make(map[TraceID]*heldTrace)}
	t.ids.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
	return t
}

// newID advances the id walk; splitmix64 finalization keeps successive
// ids uncorrelated so truncated displays (Chrome's tid) still spread.
func (t *Tracer) newID() uint64 {
	x := t.ids.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 { // ids of 0 mean "absent" on the wire
		x = 1
	}
	return x
}

// Span is one timed operation. Spans are single-goroutine values:
// start with StartSpan, annotate, then End exactly once. All methods
// tolerate a nil receiver (the disabled-tracer case).
type Span struct {
	tracer *Tracer
	data   SpanData
	start  time.Time // monotonic-clock anchor for the duration
	ended  atomic.Bool
}

// SpanData is the immutable record of a completed span.
type SpanData struct {
	Trace  TraceID       `json:"trace_id"`
	ID     SpanID        `json:"span_id"`
	Parent SpanID        `json:"parent_id,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"duration_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan begins a span named name as a child of ctx's current span
// (a new root trace when ctx has none) and returns ctx with the new
// span installed. On a nil tracer it returns ctx unchanged and a nil
// span.
func (t *Tracer) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var trace TraceID
	var parent SpanID
	if p := SpanFromContext(ctx); p != nil {
		trace = p.data.Trace
		parent = p.data.ID
	} else {
		trace = TraceID(t.newID())
	}
	return t.start(ctx, trace, parent, name, attrs)
}

// StartRemote begins a span under an explicitly supplied trace and
// parent — the server side of header propagation, stitching a
// backend's spans into the coordinator's trace.
func (t *Tracer) StartRemote(ctx context.Context, trace TraceID, parent SpanID, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if trace == 0 {
		trace = TraceID(t.newID())
		parent = 0
	}
	return t.start(ctx, trace, parent, name, attrs)
}

func (t *Tracer) start(ctx context.Context, trace TraceID, parent SpanID, name string, attrs []Attr) (context.Context, *Span) {
	s := &Span{
		tracer: t,
		data: SpanData{
			Trace:  trace,
			ID:     SpanID(t.newID()),
			Parent: parent,
			Name:   name,
			Attrs:  attrs,
		},
		start: time.Now(),
	}
	s.data.Start = s.start
	t.mu.Lock()
	if t.policy != nil {
		t.holdLocked(trace).open++
	}
	t.mu.Unlock()
	return ContextWithSpan(ctx, s), s
}

// Trace returns the span's trace id (0 on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.data.Trace
}

// ID returns the span's id (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.data.ID
}

// Annotate appends key=value attributes. Not safe for concurrent use
// with End; a span belongs to one goroutine.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// End completes the span, computing its monotonic duration and handing
// it to the tracer's retention: the ring, or its trace's held entry.
// Only the first call records.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.data.Dur = time.Since(s.start)
	s.tracer.commit(s.data)
}

func (t *Tracer) commit(d SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.held[d.Trace]
	switch {
	case h != nil && h.pins > 0:
		// Pinned spans bypass both the ring (whose cursor would evict
		// them) and the verdict (which could drop them).
		if len(h.spans) < maxPinnedSpans {
			h.spans = append(h.spans, d)
		}
	case h != nil:
		h.open--
		h.keep = h.keep || t.policy.spanKeep(d)
		h.spans = append(h.spans, d)
		if h.open <= 0 || len(h.spans) >= maxWaitingSpans {
			delete(t.held, d.Trace)
			t.judgeLocked(d.Trace, h.keep, h.spans)
		}
	case t.policy == nil:
		t.ring.Push(d)
	default:
		// Not held (started before the policy, or its trace was judged
		// early): the span is judged alone.
		t.judgeLocked(d.Trace, t.policy.spanKeep(d), []SpanData{d})
	}
}

// Snapshot copies the retained spans — the ring oldest first, then any
// pinned spans not already present in the ring.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.ring.Copy()
	if t.npinned == 0 {
		return out
	}
	// The first Pin copies a trace's spans still in the ring; skip the
	// copies of those the ring still holds.
	inRing := make(map[SpanID]bool)
	for _, d := range out {
		if h := t.held[d.Trace]; h != nil && h.pins > 0 {
			inRing[d.ID] = true
		}
	}
	for _, h := range t.held {
		if h.pins == 0 {
			continue
		}
		for _, d := range h.spans {
			if !inRing[d.ID] {
				out = append(out, d)
			}
		}
	}
	return out
}

// TraceSpans returns the retained spans of one trace, oldest first
// (pinned spans, when present, follow the ring's).
func (t *Tracer) TraceSpans(trace TraceID) []SpanData {
	all := t.Snapshot()
	out := all[:0]
	for _, d := range all {
		if d.Trace == trace {
			out = append(out, d)
		}
	}
	return out
}

// HTTP propagation headers. The coordinator injects them on every
// backend request; powerperfd adopts them so its spans join the
// caller's trace.
const (
	HeaderTraceID    = "X-Trace-Id"
	HeaderParentSpan = "X-Parent-Span"
)

// InjectHeaders stamps ctx's current span onto h; a no-op without one.
func InjectHeaders(ctx context.Context, h http.Header) {
	s := SpanFromContext(ctx)
	if s == nil {
		return
	}
	h.Set(HeaderTraceID, s.data.Trace.String())
	h.Set(HeaderParentSpan, s.data.ID.String())
}

// ExtractHeaders reads propagation headers; ok is false when no valid
// trace id is present (the parent span is optional).
func ExtractHeaders(h http.Header) (trace TraceID, parent SpanID, ok bool) {
	tv := h.Get(HeaderTraceID)
	if tv == "" {
		return 0, 0, false
	}
	tid, err := ParseID(tv)
	if err != nil || tid == 0 {
		return 0, 0, false
	}
	if pv := h.Get(HeaderParentSpan); pv != "" {
		if pid, err := ParseID(pv); err == nil {
			parent = SpanID(pid)
		}
	}
	return TraceID(tid), parent, true
}
