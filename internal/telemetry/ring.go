package telemetry

// Ring is the observation stack's one bounded buffer: the tracer's
// completed spans, the monitor's per-series samples, the SLO engine's
// cumulative snapshots and trace analytics' RED durations all live in
// one. Once it holds its capacity, each Push overwrites the oldest
// element, so memory stays constant however long the process runs.
// The backing array grows as the ring fills and never past its
// capacity, so a ring that sees few pushes costs few slots. Not safe
// for concurrent use; each owner serializes access.
type Ring[T any] struct {
	buf  []T
	max  int
	head int // oldest element (and next overwrite) once full
}

// NewRing builds a ring holding up to capacity elements (at least 1).
// Nothing is allocated until the first Push.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{max: capacity}
}

// Push appends v, overwriting the oldest element when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.max {
		if len(r.buf) == cap(r.buf) {
			n := min(max(2*cap(r.buf), 8), r.max)
			grown := make([]T, len(r.buf), n)
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == r.max {
		r.head = 0
	}
}

// Len returns the number of live elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// At returns element i, 0 being the oldest; the zero value when i is
// out of range.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= len(r.buf) {
		var zero T
		return zero
	}
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Last returns the newest element and whether the ring is non-empty.
func (r *Ring[T]) Last() (T, bool) {
	if len(r.buf) == 0 {
		var zero T
		return zero, false
	}
	return r.At(len(r.buf) - 1), true
}

// Tail copies the newest n elements oldest-first (all of them when the
// ring holds fewer).
func (r *Ring[T]) Tail(n int) []T {
	n = max(min(n, len(r.buf)), 0)
	out := make([]T, 0, n)
	from := r.head + len(r.buf) - n // physical index of the first copied
	if from >= len(r.buf) {
		return append(out, r.buf[from-len(r.buf):r.head]...)
	}
	out = append(out, r.buf[from:]...)
	return append(out, r.buf[:r.head]...)
}

// Copy copies every live element oldest-first.
func (r *Ring[T]) Copy() []T { return r.Tail(len(r.buf)) }
