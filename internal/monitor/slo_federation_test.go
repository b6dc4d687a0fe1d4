package monitor_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// sloBackendOptions compresses the SLO windows so federation tests can
// observe budget state without waiting on production window lengths.
func sloBackendOptions() service.Options {
	return service.Options{
		Seed: 42,
		SLO: &slo.Config{
			Objectives: []slo.Objective{
				{Name: service.SLOLatency, Kind: slo.KindLatency, Target: 0.99, LatencyThreshold: 2 * time.Second},
				{Name: service.SLOAvailability, Kind: slo.KindAvailability, Target: 0.95},
			},
			Resolution:   10 * time.Millisecond,
			BudgetWindow: time.Minute,
			FastShort:    50 * time.Millisecond,
			FastLong:     200 * time.Millisecond,
			SlowShort:    time.Second,
			SlowLong:     2 * time.Second,
		},
	}
}

// TestSLOGaugesFederateToSnapshotAndDashboard: slo_* gauges exposed on a
// backend's /metricsz ride the ordinary scrape into per-backend SLO
// statuses and error-budget gauges on the dashboard — no SLO-specific
// scrape code involved.
func TestSLOGaugesFederateToSnapshotAndDashboard(t *testing.T) {
	_, ts, _ := newBackend(t, sloBackendOptions())

	// Healthy traffic only: budget should stay intact.
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/v1/experiments")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	mon := monitor.New([]string{ts.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	ctx := context.Background()
	mon.Sweep(ctx)
	time.Sleep(30 * time.Millisecond) // let the SLO clock tick past the traffic
	mon.Sweep(ctx)

	snap := mon.Snapshot()
	if len(snap.Backends) != 1 {
		t.Fatalf("backends = %d, want 1", len(snap.Backends))
	}
	slos := snap.Backends[0].SLOs
	if len(slos) == 0 {
		t.Fatalf("no SLO statuses federated; series keys: %v", mon.SeriesKeys(ts.URL))
	}
	byName := map[string]monitor.SLOStatus{}
	for _, s := range slos {
		byName[s.Objective] = s
	}
	avail, ok := byName[service.SLOAvailability]
	if !ok {
		t.Fatalf("availability objective missing from federated statuses: %+v", slos)
	}
	if avail.BudgetRemaining < 0.99 {
		t.Fatalf("healthy backend burned budget: %+v", avail)
	}
	if avail.AlertState != "inactive" {
		t.Fatalf("healthy backend alert state = %q, want inactive", avail.AlertState)
	}
	if _, ok := byName[service.SLOLatency]; !ok {
		t.Fatalf("latency objective missing: %+v", slos)
	}

	// The dashboard renders the federated statuses as budget gauges.
	rec := httptest.NewRecorder()
	mon.DashboardHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dashboard", nil))
	page := rec.Body.String()
	for _, want := range []string{"Service objectives", "error budget", `class="gauge `, service.SLOAvailability} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}

// TestFleetProfilingFederates: with ProfileEvery set, a sweep kicks an
// async pprof harvest whose derived series land in the store, the
// snapshot carries per-backend profile reports, and the dashboard grows
// a continuous-profiling panel.
func TestFleetProfilingFederates(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU profile window needs ~1s wall clock")
	}
	srv := service.NewServer(service.Options{Seed: 42})
	defer srv.Drain()
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/pprof/", service.PprofHandler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	mon := monitor.New([]string{ts.URL}, monitor.Options{
		Interval:       time.Second,
		Seed:           7,
		ProfileEvery:   1,
		ProfileSeconds: 1,
	})
	if mon.ProfileFleet() == nil {
		t.Fatal("ProfileEvery set but fleet is nil")
	}
	ctx := context.Background()
	mon.Sweep(ctx)
	deadline := time.Now().Add(15 * time.Second)
	for mon.Harvests() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no harvest completed; fleet err: %v", mon.ProfileFleet().LastError(ts.URL))
		}
		time.Sleep(50 * time.Millisecond)
	}

	mon.Sweep(ctx) // fold the freshly pushed profile_* series into the snapshot
	keys := mon.SeriesKeys(ts.URL)
	var sawHeap bool
	for _, k := range keys {
		if k == "profile_heap_inuse_bytes" {
			sawHeap = true
		}
	}
	if !sawHeap {
		t.Fatalf("profile_heap_inuse_bytes not in store; keys: %v", keys)
	}

	snap := mon.Snapshot()
	if len(snap.Profiles) == 0 {
		t.Fatal("snapshot carries no profile reports")
	}
	pr := snap.Profiles[0]
	if pr.Err != "" {
		t.Fatalf("harvest error: %s", pr.Err)
	}
	if pr.HeapInuse <= 0 {
		t.Fatalf("heap inuse not captured: %+v", pr)
	}

	rec := httptest.NewRecorder()
	mon.DashboardHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dashboard", nil))
	if !strings.Contains(rec.Body.String(), "Continuous profiling") {
		t.Fatal("dashboard missing profiling panel")
	}
}

// TestCSVBytesUnchangedBySLOAndProfiling is this PR's golden guard:
// with SLO engines, tail-sampled tracers, the scrape federation loop,
// AND the fleet profiler's pprof harvests all running against live
// backends, a full seed-42 study through the scheduler still produces
// CSVs byte-identical to the committed dataset — objectives and
// profiling must observe the serving plane without perturbing the
// measured bits.
func TestCSVBytesUnchangedBySLOAndProfiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-study golden guard; skipped in -short")
	}
	newObservedBackend := func() *httptest.Server {
		opts := sloBackendOptions()
		opts.TailSampling = &telemetry.TailPolicy{
			SlowSpan: 50 * time.Millisecond, KeepErrors: true, SampleRate: 0.05,
		}
		srv := service.NewServer(opts)
		t.Cleanup(srv.Drain)
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		mux.Handle("/debug/pprof/", service.PprofHandler())
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	ts0 := newObservedBackend()
	ts1 := newObservedBackend()

	mon := monitor.New([]string{ts0.URL, ts1.URL}, monitor.Options{
		Interval:       30 * time.Millisecond,
		Jitter:         time.Millisecond,
		Timeout:        2 * time.Second,
		Seed:           7,
		ProfileEvery:   2,
		ProfileSeconds: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mon.Start(ctx)

	sched, err := cluster.NewScheduler([]string{ts0.URL, ts1.URL}, cluster.SchedulerOptions{Seed: seedPtr(42)})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sched.Reference(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf, abuf bytes.Buffer
	if err := experiments.StreamMeasurementsCSVFrom(ctx, sched, ref, nil, &mbuf, 0); err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamAggregatesCSVFrom(ctx, sched, ref, nil, &abuf, 0); err != nil {
		t.Fatal(err)
	}

	if mon.Sweeps() == 0 {
		t.Fatal("monitor never swept during the study; the guard proved nothing")
	}
	// The guard must have actually exercised the new machinery: SLO
	// engines fed by the study traffic, and at least one pprof harvest.
	for _, ts := range []*httptest.Server{ts0, ts1} {
		page := string(getBody(t, ts.URL+"/metricsz"))
		if !strings.Contains(page, "slo_error_budget_remaining{objective=") {
			t.Fatalf("%s ran without SLO gauges; the guard proved nothing", ts.URL)
		}
	}
	harvestWait := time.Now().Add(10 * time.Second)
	for mon.Harvests() == 0 {
		if time.Now().After(harvestWait) {
			t.Fatal("no profile harvest completed; the guard proved nothing")
		}
		time.Sleep(25 * time.Millisecond)
	}

	for file, got := range map[string][]byte{
		"measurements.csv": mbuf.Bytes(),
		"aggregates.csv":   abuf.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: study under SLO+profiling differs from committed dataset (%d vs %d bytes)",
				file, len(got), len(want))
		}
	}
}
