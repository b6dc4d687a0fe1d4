package monitor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// deadable simulates a backend process death: once dead, every request
// is severed without a response, as a killed process's would be.
// The handler binds late so a monitor can be attached to the server
// after its sibling URLs are known.
type deadable struct {
	h    atomic.Pointer[http.Handler]
	dead atomic.Bool
}

func (d *deadable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	h := d.h.Load()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

func (d *deadable) bind(h http.Handler) { d.h.Store(&h) }

func newBackend(t *testing.T, opts service.Options) (*service.Server, *httptest.Server, *deadable) {
	t.Helper()
	srv := service.NewServer(opts)
	d := &deadable{}
	d.bind(srv.Handler())
	ts := httptest.NewServer(d)
	t.Cleanup(ts.Close)
	return srv, ts, d
}

func seedPtr(v int64) *int64 { return &v }

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestScrapeFederatesLiveBackend points a monitor at a real powerperfd
// handler and asserts the federation loop lands every layer: healthz
// into up, statsz into flattened gauges, metricsz families under their
// exposition keys, derived histogram means, and the build identity.
func TestScrapeFederatesLiveBackend(t *testing.T) {
	_, ts, _ := newBackend(t, service.Options{Seed: 42})

	// Give the backend some traffic so latency histograms exist.
	body := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"},{"benchmark":"jess","processor":"i5 (32)"}]}`
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mon := monitor.New([]string{ts.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	ctx := context.Background()
	mon.Sweep(ctx)
	mon.Sweep(ctx) // second sweep so deltas and means exist

	keys := mon.SeriesKeys(ts.URL)
	has := func(k string) bool {
		for _, x := range keys {
			if x == k {
				return true
			}
		}
		return false
	}
	for _, want := range []string{
		"up", "scrape_ok", "scrape_duration_seconds",
		"statsz_uptime_s", "statsz_cache_hit_rate", "statsz_queue_capacity", "statsz_queue_fill",
		"powerperfd_cell_fill_seconds_mean",
	} {
		if !has(want) {
			t.Errorf("series %q missing after scrape; have %d series", want, len(keys))
		}
	}
	if v, _ := last(mon, ts.URL, "up"); v != 1 {
		t.Errorf("up=%v, want 1 for a live backend", v)
	}
	if v, _ := last(mon, ts.URL, "scrape_ok"); v != 1 {
		t.Errorf("scrape_ok=%v, want 1", v)
	}

	snap := mon.Snapshot()
	if len(snap.Backends) != 1 {
		t.Fatalf("snapshot has %d backends, want 1", len(snap.Backends))
	}
	bs := snap.Backends[0]
	if !bs.Up || !bs.ScrapeOK {
		t.Fatalf("snapshot says up=%v scrapeOK=%v err=%q", bs.Up, bs.ScrapeOK, bs.Error)
	}
	if bs.Seed != 42 {
		t.Errorf("snapshot seed=%d, want 42", bs.Seed)
	}
	if bs.Build.GoVersion == "" {
		t.Errorf("snapshot build identity empty: %+v", bs.Build)
	}
	if len(bs.TopCells) == 0 {
		t.Errorf("no slow cells captured despite measure traffic")
	}
	if snap.Sweeps != 2 {
		t.Errorf("Sweeps=%d, want 2", snap.Sweeps)
	}
}

func last(mon *monitor.Monitor, backend, key string) (float64, bool) {
	s := mon.Series(backend, key, 1)
	if len(s) == 0 {
		return 0, false
	}
	return s[0].V, true
}

// TestMetricszRoundTrips is the exposition round-trip guard on a live
// daemon: the /metricsz page must lint clean, parse, and survive
// render→parse with every family intact.
func TestMetricszRoundTrips(t *testing.T) {
	_, ts, _ := newBackend(t, service.Options{Seed: 42})
	body := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	text := string(getBody(t, ts.URL+"/metricsz"))
	if problems := telemetry.LintPrometheus(text); len(problems) != 0 {
		t.Fatalf("/metricsz lint problems: %v", problems)
	}
	fams, err := telemetry.ParsePrometheus(text)
	if err != nil {
		t.Fatalf("/metricsz does not parse: %v", err)
	}
	if f := findFamily(fams, "powerperf_build_info"); f == nil {
		t.Fatalf("/metricsz missing powerperf_build_info")
	} else if len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Fatalf("build_info samples %+v, want one sample of value 1", f.Samples)
	}

	var rendered bytes.Buffer
	telemetry.RenderPrometheus(&rendered, fams)
	again, err := telemetry.ParsePrometheus(rendered.String())
	if err != nil {
		t.Fatalf("rendered /metricsz does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(fams, again) {
		t.Fatalf("/metricsz round-trip lost information: %d vs %d families", len(fams), len(again))
	}
}

// TestStoreGaugesFederate scrapes a store-enabled backend and asserts
// the /statsz store block lands in the snapshot's store gauges and the
// dashboard grows a Study store panel; a storeless backend stays out.
func TestStoreGaugesFederate(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, ts, _ := newBackend(t, service.Options{Seed: 42, Store: st})
	_, plainTS, _ := newBackend(t, service.Options{Seed: 42})

	body := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"},{"benchmark":"jess","processor":"i5 (32)"}]}`
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The ingest is async: wait for the study to seal before scraping.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := srv.Stats().Store; s != nil && s.Segments >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("study never sealed into the store")
		}
		time.Sleep(10 * time.Millisecond)
	}

	mon := monitor.New([]string{ts.URL, plainTS.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	ctx := context.Background()
	mon.Sweep(ctx)
	mon.Sweep(ctx)

	snap := mon.Snapshot()
	byURL := map[string]monitor.BackendSnapshot{}
	for _, bs := range snap.Backends {
		byURL[bs.URL] = bs
	}
	bs := byURL[ts.URL]
	if !bs.HasStore {
		t.Fatalf("store-enabled backend snapshot has no store gauges: %+v", bs)
	}
	if bs.StoreSegments != 1 || bs.StoreRows != 2 {
		t.Errorf("store gauges segments=%v rows=%v, want 1 and 2", bs.StoreSegments, bs.StoreRows)
	}
	if bs.StoreBytes <= 0 || bs.StoreLastSeal <= 0 {
		t.Errorf("store gauges bytes=%v last_seal=%v, want both positive", bs.StoreBytes, bs.StoreLastSeal)
	}
	if bs.StoreDropped != 0 || bs.StoreWriteErr != 0 {
		t.Errorf("store gauges dropped=%v write_errors=%v, want 0", bs.StoreDropped, bs.StoreWriteErr)
	}
	if plain := byURL[plainTS.URL]; plain.HasStore {
		t.Errorf("storeless backend claims store gauges: %+v", plain)
	}

	rr := httptest.NewRecorder()
	mon.DashboardHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/dashboard", nil))
	html := rr.Body.String()
	if !strings.Contains(html, "Study store") {
		t.Errorf("dashboard missing the Study store panel")
	}
	if n := strings.Count(html, "<td class=\"mono\">"+ts.URL+"</td>"); n < 2 {
		t.Errorf("store backend appears %d times in dashboard tables, want >= 2 (backends + study store)", n)
	}
}

func findFamily(fams []telemetry.MetricFamily, name string) *telemetry.MetricFamily {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// TestAlertLifecycleOnBackendDeath is the acceptance test: a 3-backend
// fleet runs a study through the work-stealing scheduler while the monitor
// federates it; one backend is killed mid-study, the backend_down rule
// walks pending→firing on /v1/alertz (served by a surviving powerperfd
// via AttachMonitor), and after revival it resolves — with the
// lifecycle timestamps strictly ordered.
func TestAlertLifecycleOnBackendDeath(t *testing.T) {
	var victim *deadable
	var victimTS *httptest.Server
	var victimCells atomic.Int64
	killAt := int64(20)
	hooks := &service.Hooks{BeforeMeasure: func(seed int64, bench, processor string) error {
		if victimCells.Add(1) == killAt {
			victim.dead.Store(true)
			victimTS.CloseClientConnections()
		}
		return nil
	}}

	_, ts0, d0 := newBackend(t, service.Options{Seed: 42, Hooks: hooks})
	victim, victimTS = d0, ts0
	srv1, ts1, d1 := newBackend(t, service.Options{Seed: 42})
	_, ts2, _ := newBackend(t, service.Options{Seed: 42})

	mon := monitor.New([]string{ts0.URL, ts1.URL, ts2.URL}, monitor.Options{
		Interval: 25 * time.Millisecond,
		Jitter:   time.Millisecond,
		Timeout:  2 * time.Second,
		Seed:     7,
		Rules: []monitor.Rule{{
			Name: "backend_down", Series: "up", Kind: monitor.KindThreshold,
			Cmp: monitor.Below, Value: 1, For: 2, Clear: 2,
		}},
	})
	// Re-bind the surviving backend's handler with the monitor attached,
	// so /v1/alertz and /debug/dashboard serve through powerperfd itself.
	srv1.AttachMonitor(mon)
	d1.bind(srv1.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mon.Start(ctx)

	sched, err := cluster.NewScheduler([]string{ts0.URL, ts1.URL, ts2.URL}, cluster.SchedulerOptions{
		Seed:             seedPtr(42),
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cps := proc.StockConfigs()
	jobs := harness.GridJobs(cps[:6], nil)
	studyDone := make(chan error, 1)
	go func() {
		_, err := sched.MeasureBatch(ctx, jobs, 0)
		studyDone <- err
	}()

	alertState := func() (monitor.Alert, bool) {
		var payload struct {
			Alerts []monitor.Alert `json:"alerts"`
		}
		resp, err := http.Get(ts1.URL + "/v1/alertz")
		if err != nil {
			return monitor.Alert{}, false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			return monitor.Alert{}, false
		}
		for _, a := range payload.Alerts {
			if a.Rule == "backend_down" && a.Backend == ts0.URL {
				return a, true
			}
		}
		return monitor.Alert{}, false
	}
	waitFor := func(state monitor.AlertState, deadline time.Duration) monitor.Alert {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if a, ok := alertState(); ok && a.State == state {
				return a
			}
			time.Sleep(10 * time.Millisecond)
		}
		a, ok := alertState()
		t.Fatalf("backend_down never reached %v (last alert %+v, present=%v)", state, a, ok)
		return monitor.Alert{}
	}

	firing := waitFor(monitor.StateFiring, 10*time.Second)
	if firing.PendingSince.IsZero() || firing.FiringSince.IsZero() {
		t.Fatalf("firing alert missing lifecycle stamps: %+v", firing)
	}
	if !firing.PendingSince.Before(firing.FiringSince) {
		t.Fatalf("pending %v !< firing %v", firing.PendingSince, firing.FiringSince)
	}
	if !victim.dead.Load() {
		t.Fatalf("victim was never killed (cells=%d)", victimCells.Load())
	}

	// The study must still complete correctly: re-leasing the victim's
	// undelivered cells to the survivors absorbs the death.
	if err := <-studyDone; err != nil {
		t.Fatalf("study failed during backend death: %v", err)
	}

	// Revive the backend; the alert must resolve.
	victim.dead.Store(false)
	resolved := waitFor(monitor.StateResolved, 10*time.Second)
	if !(resolved.PendingSince.Before(resolved.FiringSince) &&
		resolved.FiringSince.Before(resolved.ResolvedSince)) {
		t.Fatalf("lifecycle timestamps out of order: pending=%v firing=%v resolved=%v",
			resolved.PendingSince, resolved.FiringSince, resolved.ResolvedSince)
	}

	// The dashboard serves from the same daemon, self-contained.
	dash := string(getBody(t, ts1.URL+"/debug/dashboard"))
	for _, want := range []string{"powerperf fleet", ts0.URL, "backend_down", "<svg"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(dash, "<script") || strings.Contains(dash, "http://cdn") {
		t.Errorf("dashboard is not self-contained")
	}
}

// TestCSVBytesUnchangedByMonitoring is the golden guard: with the
// scrape loop and detector running against live backends, a full
// seed-42 study through the scheduler still produces CSVs byte-identical
// to the committed dataset — observation must not perturb measurement.
func TestCSVBytesUnchangedByMonitoring(t *testing.T) {
	if testing.Short() {
		t.Skip("full-study golden guard; skipped in -short")
	}
	_, ts0, _ := newBackend(t, service.Options{Seed: 42})
	_, ts1, _ := newBackend(t, service.Options{Seed: 42})

	mon := monitor.New([]string{ts0.URL, ts1.URL}, monitor.Options{
		Interval: 30 * time.Millisecond,
		Jitter:   time.Millisecond,
		Timeout:  2 * time.Second,
		Seed:     7,
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
	for file, got := range map[string][]byte{
		"measurements.csv": mbuf.Bytes(),
		"aggregates.csv":   abuf.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: study under monitoring differs from committed dataset (%d vs %d bytes)",
				file, len(got), len(want))
		}
	}
	// Latency-regression rules may legitimately fire as study load ramps;
	// what a healthy fleet must never show is an availability alert.
	for _, a := range mon.Detector().Alerts() {
		if (a.Rule == "backend_down" || a.Rule == "scrape_degraded") && a.State == monitor.StateFiring {
			t.Errorf("healthy fleet shows availability alert: %+v", a)
		}
	}
}

// TestPowerperfmonOnceShape mirrors the CLI's -once path: one sweep,
// then the snapshot must marshal with the fields scripts consume.
func TestPowerperfmonOnceShape(t *testing.T) {
	_, ts, _ := newBackend(t, service.Options{Seed: 42})
	mon := monitor.New([]string{ts.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	mon.Sweep(context.Background())

	buf, err := json.Marshal(mon.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Backends []struct {
			URL string `json:"url"`
			Up  bool   `json:"up"`
		} `json:"backends"`
		Sweeps int64 `json:"sweeps"`
	}
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Backends) != 1 || !decoded.Backends[0].Up || decoded.Backends[0].URL != ts.URL {
		t.Fatalf("snapshot JSON shape wrong: %s", buf)
	}
	if decoded.Sweeps != 1 {
		t.Fatalf("sweeps=%d, want 1", decoded.Sweeps)
	}
}

// TestMonitorUserAgent asserts every scrape identifies itself with the
// build-stamped token.
func TestMonitorUserAgent(t *testing.T) {
	var ua atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ua.Store(r.UserAgent())
		http.NotFound(w, r)
	}))
	defer ts.Close()

	mon := monitor.New([]string{ts.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	mon.Sweep(context.Background())
	got, _ := ua.Load().(string)
	want := "powerperfmon/" + monitor.Version + " " + telemetry.BuildInfo().UserAgentToken()
	if got != want {
		t.Fatalf("scrape User-Agent %q, want %q", got, want)
	}
}
