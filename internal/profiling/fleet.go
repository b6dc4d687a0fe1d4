package profiling

// Fleet continuous profiling: harvest pprof CPU and heap profiles from
// every backend's -pprof endpoint, keep a bounded rolling window per
// backend, and answer the operational questions raw profiles cannot —
// how busy is each backend's CPU, how fast is it allocating, and which
// functions does the latest window charge for the change. The monitor
// drives HarvestAll on a jittered cadence (observer effect: profiles
// are pulled between sweeps, never from the serving path), and alloc
// rates are pushed as series so allocation regressions ride the same
// detector state machine as every other alert.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FleetOptions configures a fleet profiler.
type FleetOptions struct {
	// Backends are base URLs whose /debug/pprof endpoints to harvest
	// (powerperfd -pprof mounts them).
	Backends []string
	// Seconds is the CPU sampling window per harvest (<=0 selects 1).
	// Each harvest blocks this long on the backend, so the caller runs
	// harvests off its hot path.
	Seconds int
	// Timeout guards each HTTP request beyond the CPU window itself
	// (<=0 selects 5s).
	Timeout time.Duration
	// UserAgent stamps harvest requests.
	UserAgent string
}

// Harvest is one backend's profile capture.
type Harvest struct {
	T   time.Time
	Err string // non-empty when the capture failed; values then zero

	CPUByFunc     map[string]int64 // self CPU ns per leaf function over the window
	CPUDurationNS int64            // sampled wall window
	CPUTotalNS    int64            // total sampled CPU ns

	AllocByFunc map[string]int64 // cumulative alloc_space bytes per leaf function
	AllocTotal  int64            // cumulative alloc_space bytes since process start
	HeapInuse   int64            // inuse_space bytes at capture (gauge)
}

// fleetWindows bounds retained harvests per backend.
const fleetWindows = 8

// Fleet harvests and retains profiles for a set of backends.
type Fleet struct {
	opts FleetOptions
	// client is private, so profile pulls never share the serving pool.
	client *http.Client

	mu   sync.Mutex
	wins map[string][]Harvest // oldest first, bounded by fleetWindows
}

// NewFleet builds a fleet profiler.
func NewFleet(opts FleetOptions) *Fleet {
	if opts.Seconds <= 0 {
		opts.Seconds = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	return &Fleet{opts: opts, client: &http.Client{}, wins: make(map[string][]Harvest)}
}

// HarvestAll captures one window from every backend concurrently and
// appends it to the rolling windows. Failures record an error harvest
// (visible in snapshots) rather than aborting the fleet.
func (f *Fleet) HarvestAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range f.opts.Backends {
		wg.Add(1)
		go func(backend string) {
			defer wg.Done()
			h := f.harvestOne(ctx, backend)
			f.mu.Lock()
			win := append(f.wins[backend], h)
			if len(win) > fleetWindows {
				win = win[len(win)-fleetWindows:]
			}
			f.wins[backend] = win
			f.mu.Unlock()
		}(b)
	}
	wg.Wait()
}

func (f *Fleet) harvestOne(ctx context.Context, backend string) Harvest {
	h := Harvest{T: time.Now()}
	cpu, err := f.get(ctx, backend, fmt.Sprintf("/debug/pprof/profile?seconds=%d", f.opts.Seconds),
		time.Duration(f.opts.Seconds)*time.Second+f.opts.Timeout)
	if err != nil {
		h.Err = err.Error()
		return h
	}
	heap, err := f.get(ctx, backend, "/debug/pprof/heap", f.opts.Timeout)
	if err != nil {
		h.Err = err.Error()
		return h
	}
	cp, err := Parse(cpu)
	if err != nil {
		h.Err = "cpu: " + err.Error()
		return h
	}
	hp, err := Parse(heap)
	if err != nil {
		h.Err = "heap: " + err.Error()
		return h
	}
	if idx := cp.TypeIndex("cpu"); idx >= 0 {
		h.CPUByFunc = cp.Flat(idx)
		h.CPUTotalNS = cp.Total(idx)
	}
	h.CPUDurationNS = cp.DurationNanos
	if idx := hp.TypeIndex("alloc_space"); idx >= 0 {
		h.AllocByFunc = hp.Flat(idx)
		h.AllocTotal = hp.Total(idx)
	}
	if idx := hp.TypeIndex("inuse_space"); idx >= 0 {
		h.HeapInuse = hp.Total(idx)
	}
	return h
}

func (f *Fleet) get(ctx context.Context, backend, path string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(backend, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	if f.opts.UserAgent != "" {
		req.Header.Set("User-Agent", f.opts.UserAgent)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: http %d", backend, path, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxProfileBytes+1))
}

// last returns the most recent n successful harvests, newest first.
func (f *Fleet) last(backend string, n int) []Harvest {
	f.mu.Lock()
	defer f.mu.Unlock()
	win := f.wins[backend]
	out := make([]Harvest, 0, n)
	for i := len(win) - 1; i >= 0 && len(out) < n; i-- {
		if win[i].Err == "" {
			out = append(out, win[i])
		}
	}
	return out
}

// Latest returns the newest successful harvest for a backend.
func (f *Fleet) Latest(backend string) (Harvest, bool) {
	h := f.last(backend, 1)
	if len(h) == 0 {
		return Harvest{}, false
	}
	return h[0], true
}

// LastError returns the newest harvest error for a backend, "" when the
// newest capture succeeded or none exist.
func (f *Fleet) LastError(backend string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	win := f.wins[backend]
	if len(win) == 0 {
		return ""
	}
	return win[len(win)-1].Err
}

// AllocDelta diffs the two newest harvests' cumulative allocation
// profiles: which functions allocated how many bytes across the window,
// and how long that window was. Counter-reset aware: a backend restart
// (cumulative total went backwards) reports not-ok rather than a
// nonsense negative delta.
func (f *Fleet) AllocDelta(backend string) (delta map[string]int64, window time.Duration, ok bool) {
	hs := f.last(backend, 2)
	if len(hs) < 2 {
		return nil, 0, false
	}
	cur, prev := hs[0], hs[1]
	if cur.AllocTotal < prev.AllocTotal {
		return nil, 0, false
	}
	return Diff(cur.AllocByFunc, prev.AllocByFunc), cur.T.Sub(prev.T), true
}

// AllocRate returns a backend's allocation rate in bytes/second over
// the newest harvest pair.
func (f *Fleet) AllocRate(backend string) (float64, bool) {
	hs := f.last(backend, 2)
	if len(hs) < 2 {
		return 0, false
	}
	cur, prev := hs[0], hs[1]
	dt := cur.T.Sub(prev.T).Seconds()
	if dt <= 0 || cur.AllocTotal < prev.AllocTotal {
		return 0, false
	}
	return float64(cur.AllocTotal-prev.AllocTotal) / dt, true
}

// CPUBusyFrac returns the fraction of the sampled window a backend
// spent on CPU (can exceed 1 on multicore).
func (f *Fleet) CPUBusyFrac(backend string) (float64, bool) {
	h, ok := f.Latest(backend)
	if !ok || h.CPUDurationNS <= 0 {
		return 0, false
	}
	return float64(h.CPUTotalNS) / float64(h.CPUDurationNS), true
}

// MergedAllocDelta merges per-backend allocation deltas fleet-wide.
func (f *Fleet) MergedAllocDelta() map[string]int64 {
	flats := make([]map[string]int64, 0, len(f.opts.Backends))
	for _, b := range f.opts.Backends {
		if d, _, ok := f.AllocDelta(b); ok {
			flats = append(flats, d)
		}
	}
	return Merge(flats...)
}

// BackendReport is the operator-facing digest of one backend's rolling
// profile window, JSON-shaped for the CLI and dashboard.
type BackendReport struct {
	Backend      string  `json:"backend"`
	CapturedAt   string  `json:"captured_at,omitempty"`
	Err          string  `json:"error,omitempty"`
	CPUBusyFrac  float64 `json:"cpu_busy_frac"`
	AllocPerSec  float64 `json:"alloc_bytes_per_sec"`
	HeapInuse    int64   `json:"heap_inuse_bytes"`
	TopCPU       []Entry `json:"top_cpu,omitempty"`
	TopAllocDiff []Entry `json:"top_alloc_delta,omitempty"`
}

// Report digests every backend's state, top-k'd for display.
func (f *Fleet) Report(topK int) []BackendReport {
	out := make([]BackendReport, 0, len(f.opts.Backends))
	for _, b := range f.opts.Backends {
		r := BackendReport{Backend: b, Err: f.LastError(b)}
		if h, ok := f.Latest(b); ok {
			r.CapturedAt = h.T.UTC().Format(time.RFC3339)
			r.HeapInuse = h.HeapInuse
			r.TopCPU = TopK(h.CPUByFunc, topK)
		}
		if v, ok := f.CPUBusyFrac(b); ok {
			r.CPUBusyFrac = v
		}
		if v, ok := f.AllocRate(b); ok {
			r.AllocPerSec = v
		}
		if d, _, ok := f.AllocDelta(b); ok {
			r.TopAllocDiff = TopK(d, topK)
		}
		out = append(out, r)
	}
	return out
}
