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
