package monitor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaoshttp"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

func postMeasureBody(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/measure: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func slozSnapshot(t *testing.T, base string) slo.Snapshot {
	t.Helper()
	var snap slo.Snapshot
	if err := json.Unmarshal(getBody(t, base+"/v1/sloz"), &snap); err != nil {
		t.Fatalf("sloz unparseable: %v", err)
	}
	return snap
}

func latencyStatus(snap slo.Snapshot) *slo.ObjectiveStatus {
	for i := range snap.Objectives {
		if snap.Objectives[i].Name == service.SLOLatency {
			return &snap.Objectives[i]
		}
	}
	return nil
}

// TestSLOBurnLifecycleUnderChaos is the SLO acceptance scenario: a
// three-backend scheduled study with one backend killed mid-run and a
// 10x straggler behind a chaoshttp proxy. The straggler's latency SLO
// must walk the full fast-burn lifecycle at /v1/sloz —
// inactive→pending→firing→resolved — the firing alert must carry a
// breach exemplar whose trace resolves at /v1/traces, and the study must
// survive the death with the intervention attributed to the victim.
func TestSLOBurnLifecycleUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario; skipped in -short")
	}

	// Backend 0: the straggler. Cache fills sleep while the fault is
	// armed, so its server-side measure latency breaches the threshold
	// by ~2x (and breaches the 10x network delay on top via the proxy).
	var stragglerNS atomic.Int64
	stragglerNS.Store(int64(50 * time.Millisecond))
	hooks0 := &service.Hooks{BeforeMeasure: func(int64, string, string) error {
		time.Sleep(time.Duration(stragglerNS.Load()))
		return nil
	}}
	sloCfg := &slo.Config{
		Objectives: []slo.Objective{
			{Name: service.SLOLatency, Kind: slo.KindLatency, Target: 0.99, LatencyThreshold: 25 * time.Millisecond},
			{Name: service.SLOAvailability, Kind: slo.KindAvailability, Target: 0.95},
		},
		Resolution:   10 * time.Millisecond,
		BudgetWindow: time.Minute,
		FastShort:    50 * time.Millisecond,
		FastLong:     200 * time.Millisecond,
		SlowShort:    time.Second,
		SlowLong:     2 * time.Second,
	}
	srv0 := service.NewServer(service.Options{
		Seed: 42, Hooks: hooks0, SLO: sloCfg,
		TailSampling: &telemetry.TailPolicy{
			SlowSpan: 25 * time.Millisecond, KeepErrors: true, SampleRate: 0.1,
		},
	})
	defer srv0.Drain()
	ts0 := httptest.NewServer(srv0.Handler())
	defer ts0.Close()
	// The scheduler reaches the straggler through a chaos proxy that adds
	// a 10x network delay on every request.
	proxy0 := chaoshttp.New(ts0.URL, chaoshttp.Options{Seed: 1, DelayProb: 1, Delay: 30 * time.Millisecond})
	pts0 := httptest.NewServer(proxy0)
	defer pts0.Close()

	// Backend 1: healthy.
	srv1 := service.NewServer(service.Options{Seed: 42})
	defer srv1.Drain()
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()

	// Backend 2: killed mid-run after its 5th cache fill, behind a
	// transparent chaos proxy whose Kill severs in-flight streams.
	var proxy2 *chaoshttp.Proxy
	var pts2 *httptest.Server
	var victimCells atomic.Int64
	hooks2 := &service.Hooks{BeforeMeasure: func(int64, string, string) error {
		if victimCells.Add(1) == 5 {
			proxy2.Kill()
			pts2.CloseClientConnections()
		}
		return nil
	}}
	srv2 := service.NewServer(service.Options{Seed: 42, Hooks: hooks2})
	defer srv2.Drain()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	proxy2 = chaoshttp.New(ts2.URL, chaoshttp.Options{Seed: 2})
	pts2 = httptest.NewServer(proxy2)
	defer pts2.Close()

	// Before any traffic: every objective must be inactive.
	for _, o := range slozSnapshot(t, ts0.URL).Objectives {
		if o.AlertState != "inactive" {
			t.Fatalf("objective %s starts %q, want inactive", o.Name, o.AlertState)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sched, err := cluster.NewScheduler([]string{pts0.URL, ts1.URL, pts2.URL}, cluster.SchedulerOptions{
		Seed:             seedPtr(42),
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := harness.GridJobs(proc.StockConfigs()[:6], nil)
	studyDone := make(chan error, 1)
	go func() {
		_, err := sched.MeasureBatch(ctx, jobs, 0)
		studyDone <- err
	}()

	// Drive unique-seed fills straight at the straggler (each one
	// misses the cache, sleeps 50ms, breaches the 25ms threshold) until
	// the fast-burn rule fires.
	var firing *slo.AlertStatus
	seed := int64(1000)
	deadline := time.Now().Add(20 * time.Second)
	for firing == nil {
		if time.Now().After(deadline) {
			t.Fatalf("latency fast-burn never fired; last snapshot: %+v", slozSnapshot(t, ts0.URL))
		}
		body := fmt.Sprintf(`{"seed":%d,"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`, seed)
		seed++
		if st, b := postMeasureBody(t, ts0.URL, body); st != http.StatusOK {
			t.Fatalf("measure status %d: %s", st, b)
		}
		snap := slozSnapshot(t, ts0.URL)
		for i := range snap.Alerts {
			a := &snap.Alerts[i]
			if a.Rule == slo.RuleFastBurn && a.Backend == service.SLOLatency && a.State == monitor.StateFiring {
				firing = a
			}
		}
	}

	// The detector's lifecycle stamps prove inactive→pending→firing.
	if firing.PendingSince.IsZero() || firing.FiringSince.IsZero() {
		t.Fatalf("firing alert missing lifecycle stamps: %+v", firing)
	}
	if firing.FiringSince.Before(firing.PendingSince) {
		t.Fatalf("pending %v !<= firing %v", firing.PendingSince, firing.FiringSince)
	}
	// The page links to the offending request: at least one breach
	// exemplar whose trace id resolves at /v1/traces.
	if len(firing.Exemplars) == 0 {
		t.Fatalf("firing fast-burn alert carries no exemplars: %+v", firing)
	}
	trace := firing.Exemplars[0].TraceID
	if trace == "" {
		t.Fatal("exemplar has empty trace id")
	}
	traceBody := getBody(t, ts0.URL+"/v1/traces?trace="+trace)
	if !bytes.Contains(traceBody, []byte("http.measure")) {
		t.Fatalf("exemplar trace %s does not resolve to a measure span: %s", trace, traceBody)
	}

	// The study must survive the mid-run death of backend 2.
	if err := <-studyDone; err != nil {
		t.Fatalf("study failed under chaos: %v", err)
	}
	if !proxy2.Dead() {
		t.Fatalf("victim was never killed (fills=%d)", victimCells.Load())
	}
	// The scheduler absorbs the death through whichever resilience path
	// gets there first — the victim's failed leases re-dispatched to the
	// survivors, or a stalled one stolen. Either way the victim's breaker
	// or its failed leases must register the death, and the intervention
	// must be attributed to the victim, not a survivor.
	st := sched.Stats()
	for _, be := range st.Backends {
		if be.URL != pts2.URL {
			continue
		}
		if be.Opens+be.LeaseFailures == 0 {
			t.Errorf("killed backend shows no breaker opens and no failed leases; stats %+v", st)
		}
		if be.StolenFrom+be.LeaseFailures == 0 {
			t.Errorf("death not attributed to the killed backend; stats %+v", st)
		}
	}

	// Disarm the straggler and push cheap cached traffic through the
	// measure family until the windows flush and the alert resolves.
	stragglerNS.Store(0)
	deadline = time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("latency fast-burn never resolved; last snapshot: %+v", slozSnapshot(t, ts0.URL))
		}
		postMeasureBody(t, ts0.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`)
		lat := latencyStatus(slozSnapshot(t, ts0.URL))
		if lat == nil {
			t.Fatal("latency objective vanished")
		}
		if lat.AlertState == "resolved" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}
