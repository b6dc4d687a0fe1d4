package monitor

import (
	"reflect"
	"testing"
	"time"
)

func ts(sec int) time.Time { return time.Unix(int64(sec), 0) }

func TestRingMinimumCapacity(t *testing.T) {
	st := newStore(0, 1) // a series you cannot delta is not a series
	for i, v := range []float64{1, 2, 3} {
		st.push("be", "a", Sample{T: ts(i), V: v})
	}
	if got := Values(st.samples("be", "a")); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Fatalf("Samples=%v, want [2 3]", got)
	}
}

func TestCounterDeltasHandlesReset(t *testing.T) {
	samples := []Sample{
		{T: ts(0), V: 10}, {T: ts(1), V: 15}, {T: ts(2), V: 3}, {T: ts(3), V: 7},
	}
	got := CounterDeltas(samples)
	// The drop 15->3 is a process restart: the post-reset value 3 counts
	// as that interval's whole increase.
	if want := []float64{5, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CounterDeltas=%v, want %v", got, want)
	}
}

func TestRate(t *testing.T) {
	samples := []Sample{{T: ts(0), V: 0}, {T: ts(10), V: 30}}
	if got := Rate(samples); got != 3 {
		t.Fatalf("Rate=%v, want 3/s", got)
	}
	if got := Rate(samples[:1]); got != 0 {
		t.Fatalf("Rate of one sample = %v, want 0", got)
	}
	same := []Sample{{T: ts(5), V: 1}, {T: ts(5), V: 2}}
	if got := Rate(same); got != 0 {
		t.Fatalf("Rate over zero span = %v, want 0", got)
	}
}

func TestStoreSeriesCap(t *testing.T) {
	st := newStore(4, 2)
	st.push("be", "a", Sample{T: ts(0), V: 1})
	st.push("be", "b", Sample{T: ts(0), V: 2})
	st.push("be", "c", Sample{T: ts(0), V: 3}) // over the cap: dropped
	st.push("be", "a", Sample{T: ts(1), V: 4}) // existing series still grows
	if keys := st.seriesKeys("be"); !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("seriesKeys=%v, want [a b]", keys)
	}
	if n := st.droppedSeries("be"); n != 1 {
		t.Fatalf("droppedSeries=%d, want 1", n)
	}
	if v, ok := st.last("be", "a"); !ok || v != 4 {
		t.Fatalf("last(a)=%v,%v, want 4,true", v, ok)
	}
	if got := st.samples("be", "c"); got != nil {
		t.Fatalf("samples(c)=%v, want nil", got)
	}
	if got := st.tail("missing", "a", 3); got != nil {
		t.Fatalf("tail on unknown backend = %v, want nil", got)
	}
}
