package telemetry

// Trace pinning. The retention ring and the tail sampler both exist to
// forget: the ring overwrites oldest-first and an unremarkable trace
// loses the sampling coin flip. That is correct for bulk retention and
// wrong for any trace something else still points at — an SLO breach
// exemplar rendered on /metricsz and /v1/alertz links to a trace id,
// and that link must keep resolving at /v1/traces for as long as the
// page is actionable. Pin adds a reference to the trace's held entry
// (tracer.go), whose spans neither the ring cursor nor the verdict can
// touch; Unpin (ref-counted, so several exemplars may share one trace)
// releases it.

const (
	// maxPinnedTraces bounds distinct pinned traces; Pin beyond the cap
	// is refused (the link may then dangle, but memory stays bounded).
	maxPinnedTraces = 64
	// maxPinnedSpans bounds one pinned trace's span storage.
	maxPinnedSpans = 512
)

// Pin protects trace from ring eviction and tail-sampling drops until
// a matching Unpin. The first Pin copies the trace's spans still in the
// ring; spans already waiting for a tail verdict stay where they are,
// in the same held entry, and spans that complete later join it
// whatever the policy says. Pinning the same trace again increments a
// reference count. Nil-safe.
func (t *Tracer) Pin(trace TraceID) {
	if t == nil || trace == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.held[trace]
	if h != nil && h.pins > 0 {
		h.pins++
		return
	}
	if t.npinned >= maxPinnedTraces {
		return
	}
	if h == nil {
		h = &heldTrace{}
		t.held[trace] = h
	}
	h.pins = 1
	t.npinned++
	for i := 0; i < t.ring.Len() && len(h.spans) < maxPinnedSpans; i++ {
		if d := t.ring.At(i); d.Trace == trace {
			h.spans = append(h.spans, d)
		}
	}
}

// Unpin drops one reference; at zero the trace's held entry is freed:
// its copy is forgotten, spans still in the ring stay, and spans still
// open are judged alone as they end. Unpinning a never-pinned trace
// (including a Pin refused at the cap) is a no-op. Nil-safe.
func (t *Tracer) Unpin(trace TraceID) {
	if t == nil || trace == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.held[trace]
	if h == nil || h.pins == 0 {
		return
	}
	if h.pins--; h.pins == 0 {
		delete(t.held, trace)
		t.npinned--
	}
}

// PinnedTraces reports how many traces are currently pinned.
func (t *Tracer) PinnedTraces() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.npinned
}
