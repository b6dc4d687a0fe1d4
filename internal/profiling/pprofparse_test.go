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

	fleet := NewFleet(FleetOptions{
		Backends: []string{srv.URL},
		Seconds:  1,
		Timeout:  10 * time.Second,
	})
	ctx := context.Background()
	fleet.HarvestAll(ctx)
	if err := fleet.LastError(srv.URL); err != "" {
		t.Fatalf("first harvest failed: %s", err)
	}
	h, ok := fleet.Latest(srv.URL)
	if !ok {
		t.Fatal("no harvest retained")
	}
	if h.AllocTotal <= 0 {
		t.Fatal("harvest has no cumulative allocations")
	}
	// Allocate between harvests so the delta is non-empty.
	allocSink = burnAlloc(3000)
	fleet.HarvestAll(ctx)
	allocSink = nil

	delta, window, ok := fleet.AllocDelta(srv.URL)
	if !ok {
		t.Fatal("no alloc delta after two harvests")
	}
	if window <= 0 {
		t.Fatalf("window = %v", window)
	}
	var total int64
	for _, v := range delta {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		t.Fatalf("alloc delta empty: %+v", delta)
	}
	if merged := fleet.MergedAllocDelta(); len(merged) == 0 {
		t.Fatal("fleet-merged alloc delta empty after allocation churn")
	}
	if rate, ok := fleet.AllocRate(srv.URL); !ok || rate <= 0 {
		t.Fatalf("alloc rate = %v ok=%v", rate, ok)
	}
	rep := fleet.Report(5)
	if len(rep) != 1 || rep[0].AllocPerSec <= 0 {
		t.Fatalf("report wrong: %+v", rep)
	}
}

func TestFleetRecordsUnreachableBackend(t *testing.T) {
	fleet := NewFleet(FleetOptions{
		Backends: []string{"http://127.0.0.1:1"},
		Seconds:  1,
		Timeout:  200 * time.Millisecond,
	})
	fleet.HarvestAll(context.Background())
	if fleet.LastError("http://127.0.0.1:1") == "" {
		t.Fatal("unreachable backend left no error")
	}
	if _, ok := fleet.Latest("http://127.0.0.1:1"); ok {
		t.Fatal("failed harvest must not count as latest success")
	}
}
