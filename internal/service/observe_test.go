package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// syncBuffer lets the test read lines the handler goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// spanRecords decodes a /v1/traces body.
func spanRecords(t *testing.T, body []byte) []telemetry.SpanData {
	t.Helper()
	var spans []telemetry.SpanData
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("trace body is not valid JSON: %v\n%s", err, body)
	}
	return spans
}

// TestTracesEndpointStitchesCallerTrace drives the daemon the way the
// cluster coordinator does — a measure request carrying X-Trace-Id and
// X-Parent-Span — and asserts /v1/traces returns the server's spans
// under the caller's trace id with the caller's span as parent.
func TestTracesEndpointStitchesCallerTrace(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	const callerTrace, callerSpan = "00000000deadbeef", "00000000cafef00d"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/measure",
		strings.NewReader(`{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.HeaderTraceID, callerTrace)
	req.Header.Set(telemetry.HeaderParentSpan, callerSpan)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.HeaderTraceID); got != callerTrace {
		t.Fatalf("response trace header %q, want %q (must echo the caller's trace)", got, callerTrace)
	}

	code, body := get(t, ts.URL+"/v1/traces?trace="+callerTrace)
	if code != http.StatusOK {
		t.Fatalf("traces: %d %s", code, body)
	}
	var names []string
	sawRoot := false
	for _, sp := range spanRecords(t, body) {
		if sp.Trace.String() != callerTrace {
			t.Fatalf("trace filter leaked foreign span: %+v", sp)
		}
		names = append(names, sp.Name)
		if sp.Name == "http.measure" {
			if sp.Parent.String() != callerSpan {
				t.Fatalf("server span parent %v, want the caller's span %s", sp.Parent, callerSpan)
			}
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Fatalf("no http.measure span in trace, got %v", names)
	}
	if !strings.Contains(strings.Join(names, " "), "service.cell") {
		t.Fatalf("no service.cell span in trace, got %v", names)
	}

	// Unknown-trace filter returns an empty (but valid) span list, and a
	// malformed id is a 400.
	code, body = get(t, ts.URL+"/v1/traces?trace=0000000000000001")
	if code != http.StatusOK || len(spanRecords(t, body)) != 0 {
		t.Fatalf("unknown trace: %d %s", code, body)
	}
	if code, _ = get(t, ts.URL+"/v1/traces?trace=xyz"); code != http.StatusBadRequest {
		t.Fatalf("malformed trace id: %d, want 400", code)
	}
}

// TestAccessLogLine asserts the one-line-per-request contract for
// workload endpoints: method, path, status, duration, and trace_id on a
// single structured Info line.
func TestAccessLogLine(t *testing.T) {
	out := &syncBuffer{}
	telemetry.SetLogOutput(out)
	telemetry.SetLogLevel(slog.LevelInfo)
	defer telemetry.SetLogOutput(os.Stderr)
	defer telemetry.SetLogLevel(slog.LevelWarn) // restore TestMain's quiet level

	srv := NewServer(Options{Seed: 42, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	if code, _ := get(t, ts.URL+"/v1/experiments"); code != http.StatusOK {
		t.Fatalf("experiments: %d", code)
	}
	// The access line is written after the response body is flushed, so
	// poll briefly rather than racing the handler's tail.
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for time.Now().Before(deadline) {
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "msg=request") && strings.Contains(l, "path=/v1/experiments") {
				line = l
			}
		}
		if line != "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if line == "" {
		t.Fatalf("no access line for /v1/experiments in log output:\n%s", out.String())
	}
	for _, want := range []string{"subsystem=powerperfd", "method=GET", "status=200", "duration=", "trace_id="} {
		if !strings.Contains(line, want) {
			t.Errorf("access line missing %q: %s", want, line)
		}
	}
}

// TestMonitoringPlaneQuietAtInfo asserts the observer-effect guard: a
// scraped endpoint like /healthz must not emit Info access lines (its
// line is Debug-only) and must not mint a span — a monitor polling every
// few seconds would otherwise flood the log and evict workload spans
// from the bounded ring.
func TestMonitoringPlaneQuietAtInfo(t *testing.T) {
	out := &syncBuffer{}
	telemetry.SetLogOutput(out)
	telemetry.SetLogLevel(slog.LevelInfo)
	defer telemetry.SetLogOutput(os.Stderr)
	defer telemetry.SetLogLevel(slog.LevelWarn)

	srv := NewServer(Options{Seed: 42, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(telemetry.HeaderTraceID) != "" {
		t.Errorf("monitoring-plane response carries %s; scrapes must not mint spans", telemetry.HeaderTraceID)
	}

	// Debug visibility: the line exists when asked for.
	telemetry.SetLogLevel(slog.LevelDebug)
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	telemetry.SetLogLevel(slog.LevelInfo)

	deadline := time.Now().Add(2 * time.Second)
	var debugLine bool
	for time.Now().Before(deadline) && !debugLine {
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "msg=request") && strings.Contains(l, "path=/healthz") {
				if strings.Contains(l, "level=DEBUG") {
					debugLine = true
				} else {
					t.Fatalf("non-Debug access line for /healthz: %s", l)
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !debugLine {
		t.Fatalf("no Debug access line for /healthz in log output:\n%s", out.String())
	}
}

// TestMetricszLintsClean runs the full exposition page — counters,
// gauges, and the new histogram families — through the Prometheus
// linter, and checks the histogram families are present once traffic
// has flowed.
func TestMetricszLintsClean(t *testing.T) {
	_, ts := testServer(t)
	if code, b := postMeasure(t, ts.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`); code != http.StatusOK {
		t.Fatalf("measure: %d %s", code, b)
	}

	code, body := get(t, ts.URL+"/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	text := string(body)
	if problems := telemetry.LintPrometheus(text); len(problems) != 0 {
		t.Fatalf("/metricsz fails Prometheus lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, family := range []string{
		"powerperfd_http_request_seconds_bucket{endpoint=\"measure\",le=",
		"powerperfd_cell_fill_seconds_bucket",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metricsz missing %s", family)
		}
	}
}

// TestServersOwnTheirHistograms runs two servers in one process and
// measures through one of them: each /metricsz must render only its own
// server's fill and request latencies, as an in-process fleet's
// latency-regression rules assume.
func TestServersOwnTheirHistograms(t *testing.T) {
	a, b := NewServer(Options{Seed: 42, Workers: 1}), NewServer(Options{Seed: 42, Workers: 1})
	tsA, tsB := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
	defer tsA.Close()
	defer tsB.Close()
	defer a.Drain()
	defer b.Drain()
	if code, body := postMeasure(t, tsA.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`); code != http.StatusOK {
		t.Fatalf("measure: %d %s", code, body)
	}

	for _, c := range []struct {
		name string
		url  string
		want float64
	}{{"A", tsA.URL, 1}, {"B", tsB.URL, 0}} {
		_, page := get(t, c.url+"/metricsz")
		fams, err := telemetry.ParsePrometheus(string(page))
		if err != nil {
			t.Fatal(err)
		}
		var fills, measures float64
		for _, f := range fams {
			switch f.Name {
			case "powerperfd_cell_fill_seconds":
				if p := f.Sample("powerperfd_cell_fill_seconds_count", nil); p != nil {
					fills = p.Value
				}
			case "powerperfd_http_request_seconds":
				if p := f.Sample("powerperfd_http_request_seconds_count", []telemetry.Label{{Key: "endpoint", Value: "measure"}}); p != nil {
					measures = p.Value
				}
			}
		}
		if fills != c.want || measures != c.want {
			t.Errorf("server %s: %v cell fills and %v measure requests on /metricsz, want %v of each",
				c.name, fills, measures, c.want)
		}
	}
}

// TestEndpointFamilyBounded pins the cardinality guard: arbitrary
// request paths must collapse into the fixed label set.
func TestEndpointFamilyBounded(t *testing.T) {
	cases := map[string]string{
		"/v1/measure":                  "measure",
		"/v1/experiments/t4":           "experiments",
		"/v1/dataset":                  "dataset",
		"/v1/traces":                   "traces",
		"/healthz":                     "healthz",
		"/statsz":                      "other",
		"/metricsz":                    "metricsz",
		"/anything/else":               "other",
		"/" + strings.Repeat("x", 512): "other",
	}
	for path, want := range cases {
		if got := endpointFamily(path); got != want {
			t.Errorf("endpointFamily(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestStatusWriterPreservesFlusher guards the dataset streamer's
// dependency: the telemetry wrapper must still expose Flush.
func TestStatusWriterPreservesFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var w http.ResponseWriter = sw
	if _, ok := w.(http.Flusher); !ok {
		t.Fatal("statusWriter lost the Flusher interface")
	}
	fmt.Fprint(sw, "x")
	if sw.status != http.StatusOK {
		t.Fatalf("implicit status %d, want 200", sw.status)
	}
}
