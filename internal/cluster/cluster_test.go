package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
)

// newBackend serves a fresh powerperfd on a loopback listener for the
// life of the test.
func newBackend(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(service.NewServer(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// seedPtr builds a SchedulerOptions seed pointer.
func seedPtr(v int64) *int64 { return &v }

func stockJobs(t *testing.T, n int) []harness.Job {
	t.Helper()
	cps := proc.StockConfigs()
	if n > len(cps) {
		n = len(cps)
	}
	return harness.GridJobs(cps[:n], nil)
}

// TestClusterBreakerFedByHealthz verifies the /healthz prober trips an
// unhealthy backend's breaker, the batch — the sick backend's home
// cells included — completes on the good backend without a single
// measure request reaching the sick one, and a recovered backend
// rejoins.
func TestClusterBreakerFedByHealthz(t *testing.T) {
	good := newBackend(t, service.Options{Seed: 42})
	var healthy atomic.Bool
	var sickMeasures atomic.Int64
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			sickMeasures.Add(1)
		}
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)

	s, err := NewScheduler([]string{good.URL, sick.URL}, SchedulerOptions{
		Seed:             seedPtr(42),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s.ProbeHealth(ctx)
	s.ProbeHealth(ctx)

	st := s.Stats()
	var sickState string
	for _, b := range st.Backends {
		if b.URL == sick.URL {
			sickState = b.State
		}
	}
	if sickState != "open" {
		t.Fatalf("sick backend breaker state %q, want open; stats %+v", sickState, st)
	}
	if st.BreakerOpens == 0 {
		t.Fatalf("expected breaker opens from health probes, got 0")
	}

	// With the breaker open the sick backend's pullers idle, and the good
	// backend's pullers take its home leases too.
	jobs := stockJobs(t, 1)
	ms, err := s.MeasureBatch(ctx, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(jobs) {
		t.Fatalf("got %d measurements, want %d", len(ms), len(jobs))
	}
	if n := sickMeasures.Load(); n != 0 {
		t.Fatalf("sick backend received %d measure requests with its breaker open", n)
	}

	// Recovery: a healthy probe closes the breaker.
	healthy.Store(true)
	s.ProbeHealth(ctx)
	for _, b := range s.Stats().Backends {
		if b.URL == sick.URL && b.State != "closed" {
			t.Fatalf("recovered backend breaker state %q, want closed", b.State)
		}
	}
}

// TestClusterCSVMatchesLocalAtSeedZero pins the byte-identity contract
// at a second seed: a 2-backend scheduler and a local harness at seed 0
// must stream identical measurements.csv and aggregates.csv bytes over
// a slice of the grid. Seed 42 is covered against the committed dataset
// by TestSchedulerStudyByteIdenticalUnderChaos; this test makes sure
// nothing in the pipeline is accidentally specialized to the default
// seed, and exercises a lease size that does not divide the
// per-configuration cell count.
func TestClusterCSVMatchesLocalAtSeedZero(t *testing.T) {
	const seed = 0
	ts0 := newBackend(t, service.Options{Seed: seed})
	ts1 := newBackend(t, service.Options{Seed: seed})
	s, err := NewScheduler([]string{ts0.URL, ts1.URL}, SchedulerOptions{Seed: seedPtr(seed), LeaseCells: 7})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cps := proc.StockConfigs()[:2]

	h, err := harness.New(seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	stream := func(src experiments.Source) (string, string) {
		t.Helper()
		var mbuf, abuf bytes.Buffer
		if err := experiments.StreamMeasurementsCSVFrom(ctx, src, ref, cps, &mbuf, 0); err != nil {
			t.Fatal(err)
		}
		if err := experiments.StreamAggregatesCSVFrom(ctx, src, ref, cps, &abuf, 0); err != nil {
			t.Fatal(err)
		}
		return mbuf.String(), abuf.String()
	}

	localM, localA := stream(h)
	clusterM, clusterA := stream(s)
	if localM != clusterM {
		t.Errorf("measurements.csv: scheduled bytes differ from local at seed %d", seed)
	}
	if localA != clusterA {
		t.Errorf("aggregates.csv: scheduled bytes differ from local at seed %d", seed)
	}
}
