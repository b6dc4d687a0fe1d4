package telemetry

import (
	"reflect"
	"slices"
	"testing"
)

func pushSeq(r *Ring[float64], vals ...float64) {
	for _, v := range vals {
		r.Push(v)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[float64](3)
	pushSeq(r, 1, 2, 3, 4, 5)
	if r.Len() != 3 {
		t.Fatalf("Len=%d, want 3", r.Len())
	}
	got := r.Copy()
	if want := []float64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Copy=%v, want %v", got, want)
	}
	if last, ok := r.Last(); !ok || last != 5 {
		t.Fatalf("Last=%v,%v, want 5,true", last, ok)
	}
	if got := r.Tail(2); !reflect.DeepEqual(got, []float64{4, 5}) {
		t.Fatalf("Tail(2)=%v, want [4 5]", got)
	}
	if got := r.Tail(10); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("Tail(10)=%v, want all live samples", got)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing[float64](4)
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring reported ok")
	}
	if got := r.Copy(); len(got) != 0 {
		t.Fatalf("Copy on empty ring = %v", got)
	}
	if s := r.At(0); s != 0 {
		t.Fatalf("At(0) on empty ring = %v", s)
	}
}

// TestRingGrowsToCapacity checks every accessor against a reference
// model on empty, partly filled and wrapped rings, and that the buffer
// grows as the ring fills without ever passing its capacity.
func TestRingGrowsToCapacity(t *testing.T) {
	for _, capacity := range []int{-1, 0, 1, 2, 3, 8, 9, 20} {
		r := NewRing[int](capacity)
		limit := max(capacity, 1)
		var pushed []int
		for k := 0; k <= 3*limit+2; k++ {
			if k > 0 {
				r.Push(k)
				pushed = append(pushed, k)
			}
			if c := cap(r.buf); c > limit {
				t.Fatalf("capacity %d: backing array holds %d slots after %d pushes", capacity, c, k)
			}
			want := pushed[max(len(pushed)-limit, 0):]
			if r.Len() != len(want) {
				t.Fatalf("capacity %d, %d pushes: Len=%d, want %d", capacity, k, r.Len(), len(want))
			}
			if got := r.Copy(); !slices.Equal(got, want) {
				t.Fatalf("capacity %d, %d pushes: Copy=%v, want %v", capacity, k, got, want)
			}
			for i := -1; i <= len(want); i++ {
				w := 0
				if i >= 0 && i < len(want) {
					w = want[i]
				}
				if got := r.At(i); got != w {
					t.Fatalf("capacity %d, %d pushes: At(%d)=%d, want %d", capacity, k, i, got, w)
				}
			}
			last, ok := r.Last()
			if ok != (len(want) > 0) || (ok && last != want[len(want)-1]) {
				t.Fatalf("capacity %d, %d pushes: Last=%d,%v", capacity, k, last, ok)
			}
			for n := -1; n <= limit+1; n++ {
				tw := want[max(len(want)-max(n, 0), 0):]
				if got := r.Tail(n); !slices.Equal(got, tw) {
					t.Fatalf("capacity %d, %d pushes: Tail(%d)=%v, want %v", capacity, k, n, got, tw)
				}
			}
		}
	}
}
