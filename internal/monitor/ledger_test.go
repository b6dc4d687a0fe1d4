package monitor_test

import (
	"context"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The reader ledger. Every signal the observation stack produces names
// what reads it; a signal nothing reads is deleted, not kept "in case".
// A reader is one of:
//
//	rule:NAME        a DefaultRules rule whose series is the signal
//	snapshot:FIELD   a BackendSnapshot field (powerperfmon -once, dashboard)
//	series:NAME      a monitor series derived from the signal (below)
//	metricsz:FAMILY  the /metricsz family a Stats field renders into
//	studybench:NAME  a studybench metric
//	ci:TEXT          a CI step (.github/workflows/ci.yml) that checks it
//	test:NAME        a named test that asserts the signal's value
//
// A presence or lint check is not a reader. Signals are keyed by family:
// labels are dropped, so one reader of a family covers its label values.

// metricszReaders covers every family on a deployed backend's /metricsz
// (store, SLO engine and tail sampling on).
var metricszReaders = map[string][]string{
	"powerperf_build_info":                         {"snapshot:Seed", "snapshot:Build", "ci:.seed == 42"},
	"powerperfd_uptime_seconds":                    {"rule:uptime_drift", "snapshot:UptimeS"},
	"powerperfd_cache_hits_total":                  {"series:cache_hit_rate"},
	"powerperfd_cache_misses_total":                {"series:cache_hit_rate"},
	"powerperfd_cache_coalesced_total":             {"series:cache_hit_rate"},
	"powerperfd_cache_entries":                     {"snapshot:Entries"},
	"powerperfd_queue_depth":                       {"series:queue_fill", "snapshot:QueueDepth"},
	"powerperfd_queue_capacity":                    {"series:queue_fill", "snapshot:QueueCap"},
	"powerperfd_inflight_workers":                  {"snapshot:Inflight"},
	"powerperfd_requests_total":                    {"snapshot:Requests"},
	"powerperfd_store_segments":                    {"snapshot:StoreSegments", "test:TestStudiesRoundTripByteIdenticalCSV"},
	"powerperfd_store_rows":                        {"snapshot:StoreRows"},
	"powerperfd_store_bytes":                       {"snapshot:StoreBytes"},
	"powerperfd_store_last_seal_timestamp_seconds": {"snapshot:StoreLastSeal"},
	"powerperfd_store_recorded_studies_total":      {"ci:powerperfd_store_recorded_studies_total"},
	"powerperfd_store_dropped_studies_total":       {"snapshot:StoreDropped"},
	"powerperfd_store_write_errors_total":          {"snapshot:StoreWriteErr"},
	"powerperfd_cell_fill_seconds":                 {"series:powerperfd_cell_fill_seconds_mean"},
	"powerperfd_http_request_seconds":              {"series:powerperfd_http_request_seconds_mean"},
	"slo_error_budget_remaining":                   {"rule:error_budget_exhausted", "snapshot:SLOs"},
	"slo_compliance":                               {"snapshot:SLOs"},
	"slo_burn_rate":                                {"snapshot:SLOs"},
	"slo_alert_state":                              {"snapshot:SLOs"},
}

// seriesReaders covers the series the monitor makes itself, per backend
// and for the synthetic fleet backend. The other series it stores are
// /metricsz counter and gauge families under their own names, and
// metricszReaders covers those.
var seriesReaders = map[string][]string{
	"up":                                   {"rule:backend_down", "snapshot:Up"},
	"scrape_ok":                            {"rule:scrape_degraded", "snapshot:ScrapeOK"},
	"queue_fill":                           {"rule:queue_saturated"},
	"cache_hit_rate":                       {"rule:cache_hit_rate_collapsed", "snapshot:HitRate"},
	"powerperfd_cell_fill_seconds_mean":    {"rule:fill_latency_regressed", "snapshot:FillMeanMS"},
	"powerperfd_http_request_seconds_mean": {"rule:measure_latency_regressed"},
	"trace_stage_share":                    {"rule:critical_path_steal_shift", "rule:critical_path_queue_shift"},
}

// statsReaders covers every leaf field of service.Stats.
var statsReaders = map[string][]string{
	"Seed":                    {"metricsz:powerperf_build_info"},
	"UptimeS":                 {"metricsz:powerperfd_uptime_seconds"},
	"Draining":                {"test:TestHealthzAndDrain"},
	"Cache.Hits":              {"metricsz:powerperfd_cache_hits_total", "studybench:service.cache_hits"},
	"Cache.Misses":            {"metricsz:powerperfd_cache_misses_total", "studybench:service.cache_misses"},
	"Cache.Coalesced":         {"metricsz:powerperfd_cache_coalesced_total"},
	"Cache.Evictions":         {"test:TestCacheLRUEviction"},
	"Cache.Entries":           {"metricsz:powerperfd_cache_entries"},
	"Cache.Shards":            {"test:TestMetricsz"},
	"Queue.Depth":             {"metricsz:powerperfd_queue_depth", "studybench:service.queue_depth_max"},
	"Queue.Capacity":          {"metricsz:powerperfd_queue_capacity"},
	"Queue.Inflight":          {"metricsz:powerperfd_inflight_workers"},
	"Requests.Measure":        {"metricsz:powerperfd_requests_total"},
	"Requests.MeasureStreams": {"test:TestMeasureStreamKeepAlive"},
	"Requests.Experiments":    {"metricsz:powerperfd_requests_total"},
	"Requests.Dataset":        {"metricsz:powerperfd_requests_total"},
	"Store.Segments":          {"metricsz:powerperfd_store_segments"},
	"Store.Rows":              {"metricsz:powerperfd_store_rows"},
	"Store.Bytes":             {"metricsz:powerperfd_store_bytes"},
	"Store.LastSealUnix":      {"metricsz:powerperfd_store_last_seal_timestamp_seconds"},
	"Store.Recorded":          {"metricsz:powerperfd_store_recorded_studies_total", "studybench:store.batches_lost"},
	"Store.Dropped":           {"metricsz:powerperfd_store_dropped_studies_total", "studybench:store.ingest_dropped"},
	"Store.WriteErrors":       {"metricsz:powerperfd_store_write_errors_total", "studybench:store.write_errors"},
}

// deployedBackend serves a backend configured as powerperfd deploys it:
// study store, SLO engine and 5% tail sampling. count, when non-nil,
// receives the path of every request the monitor sends it.
func deployedBackend(t *testing.T, count func(path string)) (*service.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(service.Options{
		Seed:  42,
		Store: st,
		SLO:   service.DefaultSLOConfig(),
		TailSampling: &telemetry.TailPolicy{
			SlowSpan: 2 * time.Second, KeepErrors: true, SampleRate: 0.05,
		},
	})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count != nil && strings.HasPrefix(r.UserAgent(), "powerperfmon/") {
			count(r.URL.Path)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
		st.Close()
	})
	return srv, ts
}

// family drops a series key's labels.
func family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// statsLeaves lists the leaf fields of a struct type as dotted paths,
// through pointers and nested structs.
func statsLeaves(t reflect.Type, prefix string, out *[]string) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		ft := f.Type
		for ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			statsLeaves(ft, prefix+f.Name+".", out)
			continue
		}
		*out = append(*out, prefix+f.Name)
	}
}

// TestEverySignalHasAReader checks the ledger both ways against a
// deployed backend and the monitor sweeping it: a signal with no entry
// fails (give it a reader or delete it), and so does an entry whose
// signal no longer exists or whose reader does not.
func TestEverySignalHasAReader(t *testing.T) {
	srv, ts := deployedBackend(t, nil)
	body := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"},{"benchmark":"jess","processor":"i5 (32)"}]}`
	for i := 0; i < 2; i++ {
		if code, b := postMeasureBody(t, ts.URL, body); code != http.StatusOK {
			t.Fatalf("measure: %d %s", code, b)
		}
	}
	mon := monitor.New([]string{ts.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	for i := 0; i < 2; i++ {
		mon.Sweep(context.Background())
	}

	fams, err := telemetry.ParsePrometheus(string(getBody(t, ts.URL+"/metricsz")))
	if err != nil {
		t.Fatal(err)
	}
	pageFamilies := map[string]bool{}
	federated := map[string]bool{} // counter and gauge families the store copies
	for _, f := range fams {
		pageFamilies[f.Name] = true
		if f.Type != "histogram" && f.Type != "summary" {
			federated[f.Name] = true
		}
	}
	stored := map[string]bool{}
	for _, be := range []string{ts.URL, monitor.FleetBackend} {
		for _, k := range mon.SeriesKeys(be) {
			if f := family(k); !federated[f] {
				stored[f] = true
			}
		}
	}
	var leaves []string
	statsLeaves(reflect.TypeOf(srv.Stats()), "", &leaves)
	fields := map[string]bool{}
	for _, l := range leaves {
		fields[l] = true
	}

	reconcile := func(kind string, seen map[string]bool, ledger map[string][]string) {
		for _, s := range sortedKeys(seen) {
			if _, ok := ledger[s]; !ok {
				t.Errorf("%s %s has no reader in the ledger: name one, or delete the signal", kind, s)
			}
		}
		for _, s := range sortedKeys(ledger) {
			if !seen[s] {
				t.Errorf("ledger lists %s %s, which no longer exists", kind, s)
			}
		}
	}
	reconcile("/metricsz family", pageFamilies, metricszReaders)
	reconcile("monitor series", stored, seriesReaders)
	reconcile("service.Stats field", fields, statsReaders)

	rules := map[string]string{}
	for _, r := range monitor.DefaultRules() {
		rules[r.Name] = family(r.Series)
	}
	snapshot := reflect.TypeOf(monitor.BackendSnapshot{})
	corpus := readerCorpus(t)
	check := func(signal string, readers []string) {
		if len(readers) == 0 {
			t.Errorf("%s: empty reader list", signal)
		}
		for _, rd := range readers {
			kind, name, _ := strings.Cut(rd, ":")
			ok := false
			switch kind {
			case "rule":
				ok = rules[name] == signal
			case "snapshot":
				_, ok = snapshot.FieldByName(name)
			case "series":
				_, ok = seriesReaders[name]
			case "metricsz":
				_, ok = metricszReaders[name]
			case "studybench":
				ok = strings.Contains(corpus.studybench, `"`+name+`"`)
			case "ci":
				ok = strings.Contains(corpus.ci, name)
			case "test":
				ok = corpus.tests[name]
			}
			if !ok {
				t.Errorf("%s: reader %q does not exist", signal, rd)
			}
		}
	}
	for _, ledger := range []map[string][]string{metricszReaders, seriesReaders, statsReaders} {
		for _, s := range sortedKeys(ledger) {
			check(s, ledger[s])
		}
	}
}

// TestSweepRequestsPerPath pins the scrape's cost in requests: sixteen
// sweeps of one deployed backend send exactly sixteen /healthz, sixteen
// /metricsz and two /v1/traces requests (traces every eighth sweep),
// and nothing else.
func TestSweepRequestsPerPath(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	_, ts := deployedBackend(t, func(path string) {
		mu.Lock()
		got[path]++
		mu.Unlock()
	})
	mon := monitor.New([]string{ts.URL}, monitor.Options{Interval: time.Second, Seed: 7})
	for i := 0; i < 16; i++ {
		mon.Sweep(context.Background())
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"/healthz": 16, "/metricsz": 16, "/v1/traces": 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("requests per path after 16 sweeps = %v, want %v", got, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// corpus is the source the ledger's readers live in.
type corpus struct {
	studybench string          // studybench's Go source
	ci         string          // the CI workflow
	tests      map[string]bool // test function names across the repository
}

func readerCorpus(t *testing.T) corpus {
	t.Helper()
	root := filepath.Join("..", "..")
	c := corpus{tests: map[string]bool{}}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	c.ci = string(ci)
	var sb strings.Builder
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if filepath.Base(filepath.Dir(path)) == "studybench" {
			sb.Write(src)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, line := range strings.Split(string(src), "\n") {
				if name, ok := strings.CutPrefix(line, "func Test"); ok {
					if i := strings.IndexByte(name, '('); i >= 0 {
						c.tests["Test"+name[:i]] = true
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read the reader corpus: %v", err)
	}
	c.studybench = sb.String()
	return c
}
