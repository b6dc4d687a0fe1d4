package monitor

import (
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// store holds every scraped series: backend -> series key -> ring. All
// bounds are fixed at construction — ring capacity per series (at least
// two samples: a series you cannot delta is not a series) and a
// series-count cap per backend — so a misbehaving backend that mints
// new label values cannot grow the monitor without bound; series beyond
// the cap are counted as dropped rather than stored.
type store struct {
	mu        sync.RWMutex
	ringCap   int
	maxSeries int
	backends  map[string]*backendSeries
}

type backendSeries struct {
	rings   map[string]*telemetry.Ring[Sample]
	dropped int64
}

func newStore(ringCap, maxSeries int) *store {
	return &store{
		ringCap:   max(ringCap, 2),
		maxSeries: maxSeries,
		backends:  make(map[string]*backendSeries),
	}
}

// push appends one sample to the backend's series, creating the ring on
// first sight unless the backend is at its series cap.
func (st *store) push(backend, key string, s Sample) {
	st.mu.Lock()
	defer st.mu.Unlock()
	bs := st.backends[backend]
	if bs == nil {
		bs = &backendSeries{rings: make(map[string]*telemetry.Ring[Sample])}
		st.backends[backend] = bs
	}
	r := bs.rings[key]
	if r == nil {
		if len(bs.rings) >= st.maxSeries {
			bs.dropped++
			return
		}
		r = telemetry.NewRing[Sample](st.ringCap)
		bs.rings[key] = r
	}
	r.Push(s)
}

// samples copies a series oldest-first; nil when absent.
func (st *store) samples(backend, key string) []Sample {
	st.mu.RLock()
	defer st.mu.RUnlock()
	bs := st.backends[backend]
	if bs == nil {
		return nil
	}
	r := bs.rings[key]
	if r == nil {
		return nil
	}
	return r.Copy()
}

// tail copies the newest n samples of a series oldest-first.
func (st *store) tail(backend, key string, n int) []Sample {
	st.mu.RLock()
	defer st.mu.RUnlock()
	bs := st.backends[backend]
	if bs == nil {
		return nil
	}
	r := bs.rings[key]
	if r == nil {
		return nil
	}
	return r.Tail(n)
}

// last returns the newest value of a series.
func (st *store) last(backend, key string) (float64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	bs := st.backends[backend]
	if bs == nil {
		return 0, false
	}
	r := bs.rings[key]
	if r == nil {
		return 0, false
	}
	s, ok := r.Last()
	return s.V, ok
}

// seriesKeys lists a backend's series in sorted order.
func (st *store) seriesKeys(backend string) []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	bs := st.backends[backend]
	if bs == nil {
		return nil
	}
	keys := make([]string, 0, len(bs.rings))
	for k := range bs.rings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// droppedSeries reports how many series the cap rejected for a backend.
func (st *store) droppedSeries(backend string) int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	bs := st.backends[backend]
	if bs == nil {
		return 0
	}
	return bs.dropped
}
