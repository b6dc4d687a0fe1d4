package profiling

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	httppprof "net/http/pprof"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// burnAlloc allocates recognizably from a named function so heap
// profiles mention it.
//
//go:noinline
func burnAlloc(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, make([]byte, 4096))
	}
	return out
}

var allocSink [][]byte

func TestParseHeapProfile(t *testing.T) {
	allocSink = burnAlloc(2000)
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx := p.TypeIndex("alloc_space")
	if idx < 0 {
		t.Fatalf("alloc_space dimension missing: %+v", p.SampleTypes)
	}
	if p.Total(idx) <= 0 {
		t.Fatal("heap profile has no allocation bytes")
	}
	flat := p.Flat(idx)
	var found bool
	for name, v := range flat {
		if strings.Contains(name, "burnAlloc") && v > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("burnAlloc missing from flat heap view (%d functions)", len(flat))
	}
	if inuse := p.TypeIndex("inuse_space"); inuse < 0 {
		t.Fatalf("inuse_space dimension missing: %+v", p.SampleTypes)
	}
	allocSink = nil
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	sink := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1_000_000; i++ {
			sink += i * i
		}
	}
	_ = sink
	pprof.StopCPUProfile()

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx := p.TypeIndex("cpu")
	if idx < 0 {
		t.Fatalf("cpu dimension missing: %+v", p.SampleTypes)
	}
	if p.DurationNanos <= 0 {
		t.Fatal("cpu profile missing duration")
	}
	// A busy loop for 300ms must sample something.
	if p.Total(idx) <= 0 {
		t.Skip("no cpu samples captured (heavily loaded host)")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not a profile at all, definitely")); err == nil {
		// A garbage byte string can accidentally scan as empty-ish proto;
		// what matters is no panic and no samples.
		p, _ := Parse([]byte("not a profile at all, definitely"))
		if p != nil && len(p.Samples) > 0 {
			t.Fatal("garbage produced samples")
		}
	}
	if _, err := Parse([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Fatal("truncated gzip parsed")
	}
}

func TestDiffMergeTopK(t *testing.T) {
	prev := map[string]int64{"a": 100, "b": 50, "gone": 7}
	cur := map[string]int64{"a": 180, "b": 50, "new": 20}
	d := Diff(cur, prev)
	if d["a"] != 80 || d["new"] != 20 || d["gone"] != -7 {
		t.Fatalf("diff wrong: %+v", d)
	}
	if _, ok := d["b"]; ok {
		t.Fatal("zero delta must be omitted")
	}
	m := Merge(map[string]int64{"x": 1}, map[string]int64{"x": 2, "y": 3})
	if m["x"] != 3 || m["y"] != 3 {
		t.Fatalf("merge wrong: %+v", m)
	}
	top := TopK(d, 2)
	if len(top) != 2 || top[0].Name != "a" || top[1].Name != "new" {
		t.Fatalf("topk wrong: %+v", top)
	}
}

func TestFleetHarvestAndDelta(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.Handle("/debug/pprof/heap", httppprof.Handler("heap"))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	backends := []string{srv.URL}
	ctx := context.Background()
	first := Capture(ctx, backends, 1, "")
	if err := first[0].Err; err != "" {
		t.Fatalf("first harvest failed: %s", err)
	}
	if first[0].AllocTotal <= 0 {
		t.Fatal("harvest has no cumulative allocations")
	}
	// Allocate between harvests so the delta is non-empty.
	allocSink = burnAlloc(3000)
	second := Capture(ctx, backends, 1, "")
	allocSink = nil

	if second[0].T.Sub(first[0].T) <= 0 {
		t.Fatalf("window = %v", second[0].T.Sub(first[0].T))
	}
	rep, merged := Compare(backends, first, second, 5)
	if len(rep) != 1 || rep[0].Err != "" || rep[0].CapturedAt == "" {
		t.Fatalf("report wrong: %+v", rep)
	}
	var total int64
	for _, e := range rep[0].TopAllocDiff {
		if e.Value > 0 {
			total += e.Value
		}
	}
	if total <= 0 {
		t.Fatalf("alloc delta empty: %+v", rep[0].TopAllocDiff)
	}
	if len(merged) == 0 {
		t.Fatal("fleet-merged alloc delta empty after allocation churn")
	}
	if rep[0].AllocPerSec <= 0 {
		t.Fatalf("alloc rate = %v", rep[0].AllocPerSec)
	}
}

func TestFleetRecordsUnreachableBackend(t *testing.T) {
	backends := []string{"http://127.0.0.1:1"}
	first := Capture(context.Background(), backends, 1, "")
	if first[0].Err == "" {
		t.Fatal("unreachable backend left no error")
	}
	rep, _ := Compare(backends, first, first, 5)
	if rep[0].Err == "" {
		t.Fatal("report dropped the capture error")
	}
	if rep[0].CapturedAt != "" {
		t.Fatal("failed harvest must not count as latest success")
	}
}

// TestCompareSkipsDeltaAcrossRestart: a backend whose cumulative
// allocation total went backwards between captures restarted, so it
// reports no delta and no rate rather than negative ones, while its
// latest capture still reports CPU and heap.
func TestCompareSkipsDeltaAcrossRestart(t *testing.T) {
	t0 := time.Unix(100, 0)
	first := []Harvest{{T: t0, AllocTotal: 5000, AllocByFunc: map[string]int64{"a": 5000}}}
	second := []Harvest{{T: t0.Add(time.Second), AllocTotal: 800, AllocByFunc: map[string]int64{"a": 800},
		CPUTotalNS: 5e8, CPUDurationNS: 1e9, HeapInuse: 42}}
	rep, merged := Compare([]string{"b"}, first, second, 5)
	if r := rep[0]; r.AllocPerSec != 0 || r.TopAllocDiff != nil || len(merged) != 0 {
		t.Fatalf("restart reported a delta: %+v merged %+v", r, merged)
	}
	if r := rep[0]; r.CPUBusyFrac != 0.5 || r.HeapInuse != 42 {
		t.Fatalf("latest capture not reported: %+v", r)
	}
}
