package profiling

// Fleet profiling: capture pprof CPU and heap profiles from backends'
// -pprof endpoints, and compare two captures per backend — how busy
// each backend's CPU was, how fast it allocated between the captures,
// and which functions account for the change. `powerperfmon profile`
// takes the two captures and prints the comparison.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

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

// captureTimeout guards each profile request beyond the CPU window
// itself.
const captureTimeout = 5 * time.Second

// captureClient is private, so profile pulls never share a serving
// pool.
var captureClient = &http.Client{}

// Capture takes one capture from every backend concurrently: a CPU
// profile sampled for seconds (<= 0 selects 1), then the heap. Each
// capture blocks that long on its backend, so callers run captures off
// their hot path. A failed capture carries its error in Err rather
// than aborting the others.
func Capture(ctx context.Context, backends []string, seconds int, userAgent string) []Harvest {
	if seconds <= 0 {
		seconds = 1
	}
	out := make([]Harvest, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = captureOne(ctx, b, seconds, userAgent)
		}()
	}
	wg.Wait()
	return out
}

func captureOne(ctx context.Context, backend string, seconds int, userAgent string) Harvest {
	h := Harvest{T: time.Now()}
	cpu, err := get(ctx, backend, fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds),
		time.Duration(seconds)*time.Second+captureTimeout, userAgent)
	if err != nil {
		h.Err = err.Error()
		return h
	}
	heap, err := get(ctx, backend, "/debug/pprof/heap", captureTimeout, userAgent)
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

func get(ctx context.Context, backend, path string, timeout time.Duration, userAgent string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(backend, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	if userAgent != "" {
		req.Header.Set("User-Agent", userAgent)
	}
	resp, err := captureClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: http %d", backend, path, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxProfileBytes+1))
}

// BackendReport is the operator-facing digest of one backend's two
// captures, JSON-shaped for the CLI.
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

// Compare digests two captures per backend, first[i] and then second[i]
// of backends[i], into one report per backend, top-k'd for display, and
// the fleet-merged top allocation delta. A report's error is its second
// capture's; its CPU and heap figures come from the newer successful
// capture. The allocation rate and delta need both captures, and a
// cumulative total that went backwards (a restarted backend) yields
// neither rather than a negative delta.
func Compare(backends []string, first, second []Harvest, topK int) ([]BackendReport, []Entry) {
	reports := make([]BackendReport, len(backends))
	var deltas []map[string]int64
	for i, b := range backends {
		prev, cur := first[i], second[i]
		r := BackendReport{Backend: b, Err: cur.Err}
		latest := cur
		if latest.Err != "" {
			latest = prev
		}
		if latest.Err == "" {
			r.CapturedAt = latest.T.UTC().Format(time.RFC3339)
			r.HeapInuse = latest.HeapInuse
			r.TopCPU = TopK(latest.CPUByFunc, topK)
			if latest.CPUDurationNS > 0 {
				r.CPUBusyFrac = float64(latest.CPUTotalNS) / float64(latest.CPUDurationNS)
			}
		}
		if prev.Err == "" && cur.Err == "" && cur.AllocTotal >= prev.AllocTotal {
			d := Diff(cur.AllocByFunc, prev.AllocByFunc)
			r.TopAllocDiff = TopK(d, topK)
			if dt := cur.T.Sub(prev.T).Seconds(); dt > 0 {
				r.AllocPerSec = float64(cur.AllocTotal-prev.AllocTotal) / dt
			}
			deltas = append(deltas, d)
		}
		reports[i] = r
	}
	return reports, TopK(Merge(deltas...), topK)
}
