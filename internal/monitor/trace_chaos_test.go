package monitor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaoshttp"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/traceanalytics"
)

// TestCriticalPathUnderChaos is the trace-analytics acceptance
// scenario: a scheduled (work-stealing) seed-42 study over three
// backends — one a 10x straggler, one that hangs on a lease and dies —
// with the fleet monitor's trace analytics armed throughout. The
// monitor must assemble complete cross-backend waterfalls from the
// per-process span harvests, the critical path must attribute nonzero
// wall time to the re-dispatch that absorbed the death, per-stage
// self-times must sum to each trace's wall time within 1%, and the
// study's CSVs must stay byte-identical to a local serial run —
// observation and chaos both invisible under the determinism contract.
//
// The death is placed so the re-dispatch is on the critical path by
// construction, not by timing: the victim hangs on the first lease it
// is sent (by lease affinity, one of its own home leases) until every
// other lease of the study has ended, then dies. The re-dispatched lease starts after the
// victim's lease ended and after every other lease ended, so it is the
// study's last lease, and the critical-path walk, which starts from the
// latest-ending lease, goes through it.
func TestCriticalPathUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario; skipped in -short")
	}
	// Cancelled before the servers close, so a hung handler gives up
	// instead of blocking their shutdown if the study fails.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Backend 0: the straggler. Every cache fill sleeps ~10x a typical
	// fill, so the work-stealing division of labor shifts around it.
	hooks0 := &service.Hooks{BeforeMeasure: func(int64, string, string) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}}
	srv0 := service.NewServer(service.Options{Seed: 42, Hooks: hooks0})
	defer srv0.Drain()
	ts0 := httptest.NewServer(srv0.Handler())
	defer ts0.Close()

	// Backend 1: healthy.
	srv1 := service.NewServer(service.Options{Seed: 42})
	defer srv1.Drain()
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()

	// Backend 2: the victim. The scheduler reaches it through a chaos
	// proxy (so the kill severs the scheduler's streams) while the
	// monitor scrapes the backend directly (so the victim's span
	// retention stays harvestable, the way a sidecar monitor outlives a
	// torn-down route). Its backend hangs on the first lease it is sent
	// until every other cell is delivered and every other lease has
	// ended, then dies. The hang holds no worker, so the victim's other
	// puller keeps serving leases meanwhile.
	const total = 6 * 61
	var proxy2 *chaoshttp.Proxy
	var pts2 *httptest.Server
	var coordinator atomic.Pointer[cluster.Scheduler]
	var hung atomic.Bool
	othersEnded := func(hungCells int) bool {
		sched := coordinator.Load()
		st := sched.Stats()
		if st.CellsMeasured != int64(total-hungCells) {
			return false
		}
		ended := 0
		for _, sp := range sched.Tracer().Snapshot() {
			if sp.Name == "scheduler.lease" {
				ended++
			}
		}
		return int64(ended) == st.LeasesIssued-1
	}
	srv2 := service.NewServer(service.Options{Seed: 42})
	defer srv2.Drain()
	h2 := srv2.Handler()
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/measure" || !hung.CompareAndSwap(false, true) {
			h2.ServeHTTP(w, r)
			return
		}
		lease, _, err := service.DecodeMeasureRequest(r.Body)
		if err != nil {
			t.Errorf("victim: decode lease: %v", err)
			return
		}
		for !othersEnded(len(lease.Cells)) {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
		proxy2.Kill()
		pts2.CloseClientConnections()
	}))
	defer ts2.Close()
	proxy2 = chaoshttp.New(ts2.URL, chaoshttp.Options{Seed: 2})
	pts2 = httptest.NewServer(proxy2)
	defer pts2.Close()

	// The monitor watches all three backends directly, analytics armed
	// and sweeping (trace harvests included, on the sweep throttle)
	// while the study runs.
	mon := monitor.New([]string{ts0.URL, ts1.URL, ts2.URL}, monitor.Options{
		Interval: 25 * time.Millisecond,
		Jitter:   time.Millisecond,
		Timeout:  2 * time.Second,
		Seed:     7,
	})
	mon.Start(ctx)

	// The expiry outlasts the hang: the hung lease must move because its
	// holder died, not because another backend stole it while the rest
	// of the study ran.
	sched, err := cluster.NewScheduler([]string{ts0.URL, ts1.URL, pts2.URL}, cluster.SchedulerOptions{
		Seed:             seedPtr(42),
		LeaseCells:       8,
		LeaseExpiry:      time.Minute,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxLeaseFailures: 1000,
		Tracer:           telemetry.NewTracer(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	coordinator.Store(sched)

	// Local serial run at the same seed: the byte-identity oracle.
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	cps := proc.StockConfigs()[:6]
	var wantM, gotM bytes.Buffer
	if err := experiments.StreamMeasurementsCSVFrom(ctx, h, ref, cps, &wantM, 0); err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamMeasurementsCSVFrom(ctx, sched, ref, cps, &gotM, 0); err != nil {
		t.Fatalf("scheduled study failed under chaos: %v", err)
	}
	if !bytes.Equal(gotM.Bytes(), wantM.Bytes()) {
		t.Errorf("measurements.csv differs with analytics armed (%d vs %d bytes)",
			gotM.Len(), wantM.Len())
	}
	if !proxy2.Dead() {
		t.Fatal("victim was never killed: it was sent no lease")
	}
	st := sched.Stats()
	if st.Steals+st.Redispatches == 0 {
		t.Fatalf("victim death produced no steals or re-dispatches; stats %+v", st)
	}

	// Assemble: force one full harvest of every backend's retention,
	// then stitch in the coordinator's own spans — the scheduler.lease
	// spans that join the backend fragments into one waterfall.
	mon.HarvestTraces(ctx)
	if n := mon.IngestSpans("coordinator", sched.Tracer().Snapshot()); n == 0 {
		t.Fatal("coordinator contributed no spans")
	}
	eng := mon.TraceAnalytics()

	traces := eng.Search(traceanalytics.Query{Op: "scheduler.MeasureBatch", Limit: 10})
	if len(traces) == 0 {
		t.Fatalf("no scheduled-study traces assembled; stats %+v", eng.Stats())
	}

	// Every assembled study trace must satisfy the partition invariant:
	// per-stage self-times sum to the trace's wall time within 1%.
	var best *traceanalytics.Trace
	for _, tr := range traces {
		var sum float64
		stageMS := map[string]float64{}
		for _, sh := range tr.Stages {
			sum += sh.MS
			stageMS[sh.Stage] = sh.MS
		}
		if math.Abs(sum-tr.WallMS) > tr.WallMS*0.01 {
			t.Errorf("trace %s: stage self-times sum %.3fms, wall %.3fms (>1%% off)",
				tr.ID, sum, tr.WallMS)
		}
		if best == nil && stageMS[traceanalytics.StageSteal] > 0 {
			best = tr
		}
	}
	if best == nil {
		t.Fatalf("no study trace attributes critical-path time to %s; traces: %d, sched stats %+v",
			traceanalytics.StageSteal, len(traces), st)
	}

	// The steal trace is a complete cross-process waterfall: the
	// coordinator's spans plus at least one scraped backend's.
	if len(best.Sources) < 2 {
		t.Fatalf("steal trace has sources %v, want coordinator + backend(s)", best.Sources)
	}
	hasCoord := false
	for _, s := range best.Sources {
		if s == "coordinator" {
			hasCoord = true
		}
	}
	if !hasCoord {
		t.Fatalf("steal trace sources %v missing the coordinator", best.Sources)
	}
	if best.Seed != "42" {
		t.Errorf("steal trace seed = %q, want 42", best.Seed)
	}
	var onCrit int
	for i := range best.Spans {
		if best.Spans[i].OnCritical {
			onCrit++
		}
	}
	if onCrit == 0 || len(best.Critical) == 0 {
		t.Fatalf("steal trace has no critical path (spans=%d segments=%d)", onCrit, len(best.Critical))
	}

	// The fleet surface: a sweep publishes stage-share series under the
	// synthetic fleet backend and the snapshot carries the digest.
	mon.Sweep(ctx)
	snap := mon.Snapshot()
	if snap.Traces == nil || snap.Traces.Stats.Traces == 0 {
		t.Fatal("snapshot carries no trace analytics digest")
	}
	if len(snap.Traces.StageShares) == 0 || len(snap.Traces.TopCritical) == 0 {
		t.Fatalf("snapshot digest incomplete: %+v", snap.Traces)
	}
	series := mon.Series(monitor.FleetBackend, `trace_stage_share{stage="steal_redispatch"}`, 10)
	if len(series) == 0 {
		t.Fatal("fleet steal_redispatch share series never published")
	}

	// /v1/traceview serves the waterfall end-to-end.
	tv := httptest.NewServer(mon.TraceviewHandler())
	defer tv.Close()
	var one struct {
		Trace *traceanalytics.Trace `json:"trace"`
	}
	if err := json.Unmarshal(getBody(t, tv.URL+"/?trace="+best.ID), &one); err != nil {
		t.Fatalf("traceview waterfall unparseable: %v", err)
	}
	if one.Trace == nil || len(one.Trace.Spans) == 0 || len(one.Trace.Critical) == 0 {
		t.Fatalf("traceview returned an empty waterfall: %+v", one.Trace)
	}
	var list struct {
		Traces []traceanalytics.Digest `json:"traces"`
	}
	if err := json.Unmarshal(getBody(t, tv.URL+"/?op=scheduler.MeasureBatch&seed=42"), &list); err != nil {
		t.Fatalf("traceview search unparseable: %v", err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("traceview search found no scheduled-study traces")
	}
}
