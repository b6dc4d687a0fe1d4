package harness

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/jvm"
	"repro/internal/proc"
	"repro/internal/workload"
)

// sharedHarness caches one harness + reference across the test binary;
// the measurement cache makes the suite fast.
var (
	once      sync.Once
	shared    *Harness
	sharedRef *Reference
	setupErr  error
)

func testHarness(t *testing.T) (*Harness, *Reference) {
	t.Helper()
	once.Do(func() {
		shared, setupErr = New(42)
		if setupErr != nil {
			return
		}
		sharedRef, setupErr = shared.Reference()
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return shared, sharedRef
}

func stockCP(t *testing.T, name string) proc.ConfiguredProcessor {
	t.Helper()
	p, err := proc.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return proc.ConfiguredProcessor{Proc: p, Config: p.Stock()}
}

func TestMeasureNativeRunCount(t *testing.T) {
	h, _ := testHarness(t)
	b, err := workload.ByName("perlbench")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(b, stockCP(t, proc.Core2D65Name))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 3 {
		t.Fatalf("SPEC benchmark measured %d runs, want 3", len(m.Runs))
	}
	if m.Seconds <= 0 || m.Watts <= 0 || m.EnergyJ <= 0 {
		t.Fatalf("degenerate measurement %+v", m)
	}
}

func TestMeasureParsecRunCount(t *testing.T) {
	h, _ := testHarness(t)
	b, err := workload.ByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(b, stockCP(t, proc.Atom45Name))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 5 {
		t.Fatalf("PARSEC benchmark measured %d runs, want 5", len(m.Runs))
	}
}

func TestMeasureJavaInvocations(t *testing.T) {
	h, _ := testHarness(t)
	b, err := workload.ByName("jess")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(b, stockCP(t, proc.I5Name))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != jvm.Invocations {
		t.Fatalf("Java benchmark measured %d invocations, want %d", len(m.Runs), jvm.Invocations)
	}
	// The paper needs twenty invocations because Java runs vary; the
	// samples must not be identical.
	allSame := true
	for _, r := range m.Runs[1:] {
		if r.Seconds != m.Runs[0].Seconds {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("Java invocations show no run-to-run variation")
	}
}

func TestMeasureIsCachedAndDeterministic(t *testing.T) {
	h, _ := testHarness(t)
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	cp := stockCP(t, proc.I7Name)
	a, err := h.Measure(b, cp)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := h.Measure(b, cp)
	if err != nil {
		t.Fatal(err)
	}
	if a != bm {
		t.Fatal("cache returned a different measurement object")
	}
	// A fresh harness with the same seed reproduces the numbers.
	h2, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := h2.Measure(b, cp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Seconds-a.Seconds) > 1e-12 || math.Abs(c.Watts-a.Watts) > 1e-12 {
		t.Fatalf("same seed, different results: %v/%v vs %v/%v", a.Seconds, a.Watts, c.Seconds, c.Watts)
	}
}

func TestMeasureErrors(t *testing.T) {
	h, _ := testHarness(t)
	if _, err := h.Measure(nil, stockCP(t, proc.I7Name)); err == nil {
		t.Fatal("nil benchmark accepted")
	}
	b, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.MeasureUncached(b, proc.ConfiguredProcessor{}); err == nil {
		t.Fatal("nil processor accepted")
	}
	// A NaN clock never equals itself: each call would add a cache
	// entry no later call finds if it were memoized before validation.
	nan := stockCP(t, proc.I7Name)
	nan.Config.ClockGHz = math.NaN()
	h.mu.Lock()
	before := len(h.cache)
	h.mu.Unlock()
	for i := 0; i < 3; i++ {
		if _, err := h.Measure(b, nan); !errors.Is(err, proc.ErrBadClock) {
			t.Fatalf("NaN clock: %v, want ErrBadClock", err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.cache) != before {
		t.Fatalf("NaN-clock calls grew the cache from %d to %d entries", before, len(h.cache))
	}
}

func TestReferenceCoversAllBenchmarks(t *testing.T) {
	_, ref := testHarness(t)
	if len(ref.Seconds) != 61 || len(ref.EnergyJ) != 61 {
		t.Fatalf("reference covers %d/%d benchmarks, want 61", len(ref.Seconds), len(ref.EnergyJ))
	}
	for name, s := range ref.Seconds {
		if s <= 0 || ref.EnergyJ[name] <= 0 {
			t.Errorf("%s: degenerate reference (%v s, %v J)", name, s, ref.EnergyJ[name])
		}
	}
}

func TestNormalizeAgainstReference(t *testing.T) {
	h, ref := testHarness(t)
	b, err := workload.ByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	// The i5 is the fastest reference machine: it must beat the
	// reference average (normalized perf > 1); the Atom must fall below.
	fast, err := h.Measure(b, stockCP(t, proc.I5Name))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := h.Measure(b, stockCP(t, proc.Atom45Name))
	if err != nil {
		t.Fatal(err)
	}
	nf, err := ref.Normalize(fast)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := ref.Normalize(slow)
	if err != nil {
		t.Fatal(err)
	}
	if nf.Perf <= 1 {
		t.Fatalf("i5 normalized perf = %v, want > 1", nf.Perf)
	}
	if ns.Perf >= 1 {
		t.Fatalf("Atom normalized perf = %v, want < 1", ns.Perf)
	}
	if ns.Energy <= 0 || nf.Energy <= 0 {
		t.Fatal("degenerate normalized energy")
	}
}

func TestNormalizeUnknownBenchmark(t *testing.T) {
	_, ref := testHarness(t)
	m := &Measurement{Bench: &workload.Benchmark{Name: "nope"}}
	if _, err := ref.Normalize(m); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMeasureConfigAggregation(t *testing.T) {
	h, ref := testHarness(t)
	res, err := h.MeasureConfig(stockCP(t, proc.Core2D65Name), ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four groups, correct sizes, weighted average equals the mean of
	// group means.
	var sumPerf float64
	wantN := map[workload.Group]int{
		workload.NativeNonScalable: 27, workload.NativeScalable: 11,
		workload.JavaNonScalable: 18, workload.JavaScalable: 5,
	}
	for _, g := range workload.Groups() {
		gr := res.Groups[int(g)]
		if gr.N != wantN[g] {
			t.Errorf("%s: %d benchmarks, want %d", g, gr.N, wantN[g])
		}
		sumPerf += gr.Perf
	}
	if math.Abs(res.PerfW-sumPerf/4) > 1e-12 {
		t.Fatalf("weighted perf %v != mean of groups %v", res.PerfW, sumPerf/4)
	}
	if res.WattsMin > res.WattsB || res.WattsB > res.WattsMax {
		t.Fatal("min/avg/max power ordering broken")
	}
	if res.PerfMin > res.PerfB || res.PerfB > res.PerfMax {
		t.Fatal("min/avg/max perf ordering broken")
	}
}

func TestMeasureConfigGroupSubset(t *testing.T) {
	h, ref := testHarness(t)
	res, err := h.MeasureConfig(stockCP(t, proc.Atom45Name), ref, []workload.Group{workload.JavaScalable})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[int(workload.JavaScalable)].N != 5 {
		t.Fatal("subset group not measured")
	}
	if res.Groups[int(workload.NativeNonScalable)].N != 0 {
		t.Fatal("unrequested group measured")
	}
}

func TestMeasureConfigNilReference(t *testing.T) {
	h, _ := testHarness(t)
	if _, err := h.MeasureConfig(stockCP(t, proc.Atom45Name), nil, nil); err == nil {
		t.Fatal("nil reference accepted")
	}
}

func TestConfidenceTableMatchesTable2Shape(t *testing.T) {
	h, _ := testHarness(t)
	tbl, err := ConfidenceTable(h.Measure, proc.StockConfigs())
	if err != nil {
		t.Fatal(err)
	}
	// Table 2: overall average CIs are small (~1-2%), maxima below ~15%.
	if tbl.Overall.TimeAvg <= 0 || tbl.Overall.TimeAvg > 0.04 {
		t.Errorf("overall time CI avg = %v, want ~1-2%%", tbl.Overall.TimeAvg)
	}
	if tbl.Overall.PowerAvg <= 0 || tbl.Overall.PowerAvg > 0.04 {
		t.Errorf("overall power CI avg = %v, want ~1-2%%", tbl.Overall.PowerAvg)
	}
	if tbl.Overall.TimeMax > 0.2 || tbl.Overall.PowerMax > 0.2 {
		t.Errorf("maximum CIs implausibly large: %+v", tbl.Overall)
	}
	// Java's twenty JIT/GC-jittered invocations must show larger time
	// CIs than native's three near-deterministic runs (Table 2's key
	// contrast).
	nn := tbl.Groups[int(workload.NativeNonScalable)]
	jn := tbl.Groups[int(workload.JavaNonScalable)]
	if jn.TimeAvg <= nn.TimeAvg {
		t.Errorf("Java time CI %v not above native %v", jn.TimeAvg, nn.TimeAvg)
	}
	if _, err := ConfidenceTable(h.Measure, nil); err == nil {
		t.Fatal("empty configuration list accepted")
	}
}

func TestMeasureBatchParallelMatchesSerial(t *testing.T) {
	// Parallel scheduling must not change a single number: every run
	// seeds its own noise and jitter streams from its identity.
	serial, err := New(77)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(77)
	if err != nil {
		t.Fatal(err)
	}
	jobs := GridJobs(proc.StockConfigs()[:3], workload.ByGroup(workload.JavaScalable))
	var want []*Measurement
	for _, j := range jobs {
		m, err := serial.Measure(j.Bench, j.CP)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	got, err := parallel.MeasureBatch(context.Background(), jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seconds != want[i].Seconds || got[i].Watts != want[i].Watts {
			t.Fatalf("job %d (%s on %s): parallel %v/%v vs serial %v/%v",
				i, jobs[i].Bench.Name, jobs[i].CP,
				got[i].Seconds, got[i].Watts, want[i].Seconds, want[i].Watts)
		}
	}
}

func TestMeasureBatchEdgeCases(t *testing.T) {
	h, _ := testHarness(t)
	if res, err := h.MeasureBatch(context.Background(), nil, 4); err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	// Workers clamped to job count; default workers.
	jobs := GridJobs(proc.StockConfigs()[:1], workload.ByGroup(workload.JavaScalable)[:2])
	res, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
}

func TestMeasureBatchFailingJobsDoNotDeadlock(t *testing.T) {
	// Regression: the old producer-channel feed deadlocked when every
	// worker exited early on an error, because nothing drained the
	// producer's remaining sends. A batch where every job fails, driven
	// by a single worker, is the sharpest reproducer: the worker bails
	// on job 0 and the batch must still return promptly with the error.
	h, _ := testHarness(t)
	valid := GridJobs(proc.StockConfigs()[:1], workload.ByGroup(workload.JavaScalable)[:1])
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Bench: nil, CP: valid[0].CP} // nil benchmark always fails
	}
	done := make(chan error, 1)
	go func() {
		_, err := h.MeasureBatch(context.Background(), jobs, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failing batch returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MeasureBatch deadlocked on a failing batch")
	}
}

func TestGridJobsDefaults(t *testing.T) {
	jobs := GridJobs(nil, nil)
	if len(jobs) != 8*61 {
		t.Fatalf("%d jobs, want 488", len(jobs))
	}
}

func TestMeasureConcurrentSameKey(t *testing.T) {
	// Concurrent requests for the same measurement share one run of the
	// methodology and one result object.
	h, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("jess")
	if err != nil {
		t.Fatal(err)
	}
	cp := stockCP(t, proc.I5Name)
	const n = 8
	results := make([]*Measurement, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := h.Measure(b, cp)
			if err == nil {
				results[i] = m
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent same-key measurements returned different objects")
		}
	}
}
