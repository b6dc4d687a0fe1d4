package cluster

import (
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

	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestCoordinatorTraceStitchesAcrossBackends is the observability
// acceptance test: a 2-backend scheduled batch with one injected backend
// failure produces a single scheduler-side trace rooted at
// scheduler.MeasureBatch, the failed lease comes back as a
// scheduler.lease span of kind redispatch, and each backend that served
// requests retains server-side spans under the same trace id — its
// http.measure spans parented to scheduler.lease spans — fetchable from
// its /v1/traces endpoint.
func TestCoordinatorTraceStitchesAcrossBackends(t *testing.T) {
	var failOnce atomic.Bool
	failOnce.Store(true)
	hooks := &service.Hooks{BeforeMeasure: func(seed int64, bench, processor string) error {
		if failOnce.CompareAndSwap(true, false) {
			return fmt.Errorf("injected fault: %s on %s", bench, processor)
		}
		return nil
	}}
	ts1 := newBackend(t, service.Options{Seed: 42, Hooks: hooks})
	ts2 := newBackend(t, service.Options{Seed: 42})

	tr := telemetry.NewTracer(4096)
	s, err := NewScheduler([]string{ts1.URL, ts2.URL}, SchedulerOptions{
		Seed:        seedPtr(42),
		Tracer:      tr,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 6)
	if _, err := s.MeasureBatch(context.Background(), jobs, 0); err != nil {
		t.Fatal(err)
	}

	// Scheduler side: one trace rooted at scheduler.MeasureBatch holding
	// every lease span, the injected fault's re-dispatch among them.
	spans := tr.Snapshot()
	byName := map[string]int{}
	leaseIDs := map[string]bool{}
	kinds := map[string]int{}
	var trace telemetry.TraceID
	for _, sp := range spans {
		byName[sp.Name]++
		switch sp.Name {
		case "scheduler.MeasureBatch":
			trace = sp.Trace
		case "scheduler.lease":
			leaseIDs[sp.ID.String()] = true
			for _, a := range sp.Attrs {
				if a.Key == "kind" {
					kinds[a.Value]++
				}
			}
		}
	}
	if byName["scheduler.MeasureBatch"] != 1 {
		t.Fatalf("want exactly one batch root span, got %d (spans: %v)", byName["scheduler.MeasureBatch"], byName)
	}
	if kinds["first"] == 0 {
		t.Fatalf("no first-dispatch lease spans: kinds %v, spans %v", kinds, byName)
	}
	if kinds["redispatch"] == 0 {
		t.Fatalf("injected fault produced no redispatch lease span: kinds %v", kinds)
	}
	if st := s.Stats(); st.DispatchFailures == 0 || st.Redispatches == 0 {
		t.Fatalf("stats recorded no failed dispatch and re-dispatch: %+v", st)
	}
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Fatalf("span %s is in trace %s, want all scheduler spans in %s", sp.Name, sp.Trace, trace)
		}
	}

	// Backend side: each backend that served requests retains spans under
	// the scheduler's trace id, parented to a scheduler lease span.
	served := 0
	for _, url := range []string{ts1.URL, ts2.URL} {
		backendSpans := fetchTrace(t, url, trace)
		if len(backendSpans) == 0 {
			continue
		}
		served++
		for _, sp := range backendSpans {
			if sp.Trace != trace {
				t.Fatalf("backend %s returned a span outside the filter: %+v", url, sp)
			}
			if sp.Name == "http.measure" && !leaseIDs[sp.Parent.String()] {
				t.Fatalf("backend %s http.measure span parent %v is not a scheduler lease span",
					url, sp.Parent)
			}
		}
		names := make([]string, 0, len(backendSpans))
		for _, sp := range backendSpans {
			names = append(names, sp.Name)
		}
		joined := strings.Join(names, " ")
		if !strings.Contains(joined, "http.measure") {
			t.Fatalf("backend %s trace has no http.measure span: %v", url, names)
		}
	}
	if served == 0 {
		t.Fatal("no backend retained spans for the scheduler's trace")
	}

	// Per-backend latency distributions surface in Stats once requests
	// have flowed.
	st := s.Stats()
	sawRequests := false
	for _, be := range st.Backends {
		if be.Requests > 0 {
			sawRequests = true
			if be.P50Ms <= 0 || be.P99Ms < be.P50Ms {
				t.Fatalf("backend %s latency summary malformed: %+v", be.URL, be)
			}
		}
	}
	if !sawRequests {
		t.Fatalf("no backend recorded request latency: %+v", st.Backends)
	}
}

func fetchTrace(t *testing.T, baseURL string, trace telemetry.TraceID) []telemetry.SpanData {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/traces?trace=" + trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces from %s: %d %s", baseURL, resp.StatusCode, body)
	}
	var spans []telemetry.SpanData
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("backend trace is not valid JSON: %v\n%s", err, body)
	}
	return spans
}

// TestClientSetsUserAgentAndPropagatesHeaders pins the wire contract:
// every scheduler request identifies itself and carries the active
// span's trace headers, naming the lease span as the backend's parent.
func TestClientSetsUserAgentAndPropagatesHeaders(t *testing.T) {
	var gotUA, gotTrace, gotParent atomic.Value
	srv := service.NewServer(service.Options{Seed: 42})
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/measure" {
			gotUA.Store(r.Header.Get("User-Agent"))
			gotTrace.Store(r.Header.Get(telemetry.HeaderTraceID))
			gotParent.Store(r.Header.Get(telemetry.HeaderParentSpan))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	tr := telemetry.NewTracer(64)
	s, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MeasureBatch(context.Background(), stockJobs(t, 1)[:2], 0); err != nil {
		t.Fatal(err)
	}

	// The UA carries the version plus a build token (commit; go version)
	// so backend logs can attribute traffic to an exact binary.
	wantUA := "powerperf-cluster/" + Version + " " + telemetry.BuildInfo().UserAgentToken()
	if ua, _ := gotUA.Load().(string); ua != wantUA {
		t.Fatalf("User-Agent %q, want %q", ua, wantUA)
	}
	traceHdr, _ := gotTrace.Load().(string)
	parentHdr, _ := gotParent.Load().(string)
	if traceHdr == "" || parentHdr == "" {
		t.Fatalf("trace headers not propagated: trace=%q parent=%q", traceHdr, parentHdr)
	}
	spans := tr.Snapshot()
	ok := false
	for _, sp := range spans {
		if sp.Trace.String() == traceHdr && sp.Name == "scheduler.lease" && sp.ID.String() == parentHdr {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("propagated headers (trace=%s parent=%s) do not name a scheduler lease span", traceHdr, parentHdr)
	}
}
