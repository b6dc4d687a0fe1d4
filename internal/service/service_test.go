package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sharedSrv amortizes one daemon (and its measurement cache) across the
// package's endpoint tests, the way a real powerperfd amortizes across
// requests. Tests that need fresh counters build their own Server.
var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedHTTP *httptest.Server
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv = NewServer(Options{Seed: 42})
		sharedHTTP = httptest.NewServer(sharedSrv.Handler())
	})
	return sharedSrv, sharedHTTP
}

func postMeasure(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

const twoCellBody = `{"cells":[
	{"benchmark":"mcf","processor":"i7 (45)"},
	{"benchmark":"jess","processor":"i5 (32)","config":{"cores":2,"smt":2,"clock_ghz":1.2,"turbo":false}}
]}`

// TestMeasureRepeatServedFromCache pins the acceptance criterion: a
// repeated POST /v1/measure for the same cells is served from cache (no
// recomputation, observed via the cache miss counter) and is
// byte-identical to the first response.
func TestMeasureRepeatServedFromCache(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	code, first := postMeasure(t, ts.URL, twoCellBody)
	if code != http.StatusOK {
		t.Fatalf("first POST: %d %s", code, first)
	}
	st1 := srv.Stats()
	if st1.Cache.Misses != 2 || st1.Cache.Hits != 0 {
		t.Fatalf("after first POST: %+v", st1.Cache)
	}

	code, second := postMeasure(t, ts.URL, twoCellBody)
	if code != http.StatusOK {
		t.Fatalf("second POST: %d %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat response differs:\n%s\nvs\n%s", first, second)
	}
	st2 := srv.Stats()
	if st2.Cache.Misses != 2 {
		t.Fatalf("repeat recomputed: misses %d -> %d", st1.Cache.Misses, st2.Cache.Misses)
	}
	if st2.Cache.Hits != 2 {
		t.Fatalf("repeat not served from cache: hits = %d, want 2", st2.Cache.Hits)
	}
	if st2.Cache.Hits <= 0 {
		t.Fatalf("cache hits %d, want > 0", st2.Cache.Hits)
	}
}

// TestTwoServersBitIdentical is the service half of the determinism
// property: two independent daemons (separate rigs, separate caches)
// filling their caches for the same cells serve byte-identical bodies.
func TestTwoServersBitIdentical(t *testing.T) {
	var bodies [2][]byte
	for i := range bodies {
		srv := NewServer(Options{Seed: 42, Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		code, b := postMeasure(t, ts.URL, twoCellBody)
		if code != http.StatusOK {
			t.Fatalf("server %d: %d %s", i, code, b)
		}
		bodies[i] = b
		ts.Close()
		srv.Drain()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("independent cache fills differ:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestSameLabelCellIndependentOfHistory: i7 4C2T at 2.60 and 2.64 GHz
// share the label "4C2T@2.6GHz". A daemon that measured mcf at 2.60
// serves lbm at 2.64 byte-identical to a fresh daemon, so a cell's value
// does not depend on what its backend measured before.
func TestSameLabelCellIndependentOfHistory(t *testing.T) {
	cell := func(bench string, ghz float64) string {
		return fmt.Sprintf(`{"detail":"full","cells":[{"benchmark":%q,"processor":"i7 (45)","config":{"cores":4,"smt":2,"clock_ghz":%v,"turbo":false}}]}`, bench, ghz)
	}
	var bodies [2][]byte
	for i, history := range [][]string{{cell("mcf", 2.60)}, nil} {
		srv := NewServer(Options{Seed: 42, Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		for _, body := range append(history, cell("lbm", 2.64)) {
			code, b := postMeasure(t, ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("server %d: %d %s", i, code, b)
			}
			bodies[i] = b
		}
		ts.Close()
		srv.Drain()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("lbm at 2.64 GHz after mcf at 2.60 GHz:\n%s\nfresh daemon:\n%s", bodies[0], bodies[1])
	}
}

// TestMeasureMatchesHarness cross-checks the service path against a
// direct harness measurement at the same seed: the wire numbers are the
// measurement's numbers, bit-identical through JSON round-trip.
func TestMeasureMatchesHarness(t *testing.T) {
	_, ts := testServer(t)
	body := `{"seed":7,"cells":[{"benchmark":"vips","processor":"Atom (45)"}]}`
	code, b := postMeasure(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("%d %s", code, b)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != 7 || len(resp.Cells) != 1 {
		t.Fatalf("response %+v", resp)
	}

	h, err := harness.New(7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.ByName("Atom (45)")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.ByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(bench, proc.ConfiguredProcessor{Proc: p, Config: p.Stock()})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Cells[0]
	if got.Seconds != m.Seconds || got.Watts != m.Watts || got.EnergyJ != m.EnergyJ {
		t.Fatalf("service %v/%v/%v vs harness %v/%v/%v",
			got.Seconds, got.Watts, got.EnergyJ, m.Seconds, m.Watts, m.EnergyJ)
	}
	if got.Runs != len(m.Runs) || got.TimeCIRel != m.TimeCI.Relative() || got.PowerCIRel != m.PowerCI.Relative() {
		t.Fatalf("wire metadata mismatch: %+v", got)
	}
}

// TestSeedZeroServesSeedZero: 0 is a seed like any other (the seed-0
// dataset is pinned next to seed 42's), so a zero-seed daemon reports
// seed 0 on its /metricsz identity gauge and measures a seedless cell
// exactly as harness.New(0) does.
func TestSeedZeroServesSeedZero(t *testing.T) {
	srv := NewServer(Options{Seed: 0, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	_, page := get(t, ts.URL+"/metricsz")
	fams, err := telemetry.ParsePrometheus(string(page))
	if err != nil {
		t.Fatal(err)
	}
	var seed string
	for _, f := range fams {
		if f.Name == "powerperf_build_info" && len(f.Samples) == 1 {
			seed, _ = f.Samples[0].Label("seed")
		}
	}
	if seed != "0" {
		t.Fatalf("identity gauge seed = %q, want \"0\"", seed)
	}

	code, b := postMeasure(t, ts.URL, `{"cells":[{"benchmark":"vips","processor":"Atom (45)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("%d %s", code, b)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != 0 || len(resp.Cells) != 1 {
		t.Fatalf("response %+v, want one cell at seed 0", resp)
	}
	h, err := harness.New(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.ByName("Atom (45)")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.ByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(bench, proc.ConfiguredProcessor{Proc: p, Config: p.Stock()})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Cells[0]
	for _, pair := range [][2]float64{{got.Seconds, m.Seconds}, {got.Watts, m.Watts}, {got.EnergyJ, m.EnergyJ}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("seedless cell %v/%v/%v, harness.New(0) %v/%v/%v",
				got.Seconds, got.Watts, got.EnergyJ, m.Seconds, m.Watts, m.EnergyJ)
		}
	}
}

// TestConcurrentLoadOverlappingKeys is the race-lane acceptance test: 32
// goroutines hammer one daemon with overlapping keys; every identical
// request must observe a byte-identical body, the singleflight path must
// coalesce concurrent fills, and the cache must report hits afterwards.
func TestConcurrentLoadOverlappingKeys(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	// Four distinct bodies over a pool of cells; 32 goroutines x 3
	// rounds means every body is requested ~24 times concurrently.
	cells := []string{
		`{"benchmark":"jess","processor":"i5 (32)"}`,
		`{"benchmark":"db","processor":"AtomD (45)"}`,
		`{"benchmark":"vips","processor":"Core2Q (65)"}`,
		`{"benchmark":"pmd","processor":"Core2D (45)"}`,
		`{"benchmark":"lusearch","processor":"i7 (45)"}`,
	}
	bodies := make([]string, 4)
	for i := range bodies {
		// Overlapping subsets: body i holds cells i and i+1.
		bodies[i] = fmt.Sprintf(`{"cells":[%s,%s]}`, cells[i], cells[i+1])
	}

	const goroutines = 32
	const rounds = 3
	got := make([][rounds][]byte, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
					strings.NewReader(bodies[(g+r)%len(bodies)]))
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d round %d: %d %s", g, r, resp.StatusCode, b)
					return
				}
				got[g][r] = b
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Same body index -> byte-identical response, across all goroutines
	// and rounds.
	want := make(map[int][]byte)
	for g := 0; g < goroutines; g++ {
		for r := 0; r < rounds; r++ {
			idx := (g + r) % len(bodies)
			if want[idx] == nil {
				want[idx] = got[g][r]
				continue
			}
			if !bytes.Equal(got[g][r], want[idx]) {
				t.Fatalf("goroutine %d round %d: body %d diverged", g, r, idx)
			}
		}
	}

	st := srv.Stats()
	if st.Cache.Hits <= 0 {
		t.Fatalf("cache hits %d after concurrent load, want > 0", st.Cache.Hits)
	}
	// 5 distinct cells total; everything else must have been coalesced
	// or served from cache.
	if st.Cache.Misses != 5 {
		t.Fatalf("%d fills for 5 distinct cells", st.Cache.Misses)
	}
}

func TestMeasureValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"cells":`},
		{"unknown field", `{"cellz":[]}`},
		{"no cells", `{"cells":[]}`},
		{"unknown benchmark", `{"cells":[{"benchmark":"nope","processor":"i7 (45)"}]}`},
		{"unknown processor", `{"cells":[{"benchmark":"mcf","processor":"i9 (7)"}]}`},
		{"invalid config", `{"cells":[{"benchmark":"mcf","processor":"i7 (45)","config":{"cores":9,"smt":1,"clock_ghz":2.67,"turbo":false}}]}`},
		{"turbo below max clock", `{"cells":[{"benchmark":"mcf","processor":"i7 (45)","config":{"cores":4,"smt":2,"clock_ghz":1.6,"turbo":true}}]}`},
		{"trailing garbage", `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]} {"again":true}`},
	}
	for _, tc := range cases {
		code, b := postMeasure(t, ts.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, b)
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not JSON", tc.name, b)
		}
	}

	// Cell-count bound.
	var sb strings.Builder
	sb.WriteString(`{"cells":[`)
	for i := 0; i <= MaxCells; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"benchmark":"mcf","processor":"i7 (45)"}`)
	}
	sb.WriteString(`]}`)
	if code, _ := postMeasure(t, ts.URL, sb.String()); code != http.StatusBadRequest {
		t.Errorf("oversized request: status %d, want 400", code)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	_, ts := testServer(t)

	code, b := get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("index: %d %s", code, b)
	}
	var idx struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Experiments) != len(experimentRegistry) {
		t.Fatalf("index lists %d ids, registry has %d", len(idx.Experiments), len(experimentRegistry))
	}

	if code, b := get(t, ts.URL+"/v1/experiments/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d %s", code, b)
	}

	// table3 is static specification data; table2 measures through the
	// shared context. Both must be valid JSON and stable across fetches.
	for _, id := range []string{"table3", "table2"} {
		code, first := get(t, ts.URL+"/v1/experiments/"+id)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", id, code, first)
		}
		var doc struct {
			ID     string          `json:"id"`
			Seed   int64           `json:"seed"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(first, &doc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if doc.ID != id || doc.Seed != 42 || len(doc.Result) == 0 {
			t.Fatalf("%s: doc %+v", id, doc)
		}
		_, second := get(t, ts.URL+"/v1/experiments/"+id)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: repeated fetch differs", id)
		}
	}
}

// TestExperimentsCachedApartFromCells pins the cell-cache counters to
// cells: rendering an experiment on a fresh daemon fills the 244
// normalisation-reference cells and nothing else, and fetching it again
// moves no cell counter.
func TestExperimentsCachedApartFromCells(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	for i := 1; i <= 2; i++ {
		if code, b := get(t, ts.URL+"/v1/experiments/table3"); code != http.StatusOK {
			t.Fatalf("table3: %d %s", code, b)
		}
		if c := srv.Stats().Cache; c.Hits != 0 || c.Misses != 244 || c.Entries != 244 {
			t.Fatalf("after GET %d: cell cache hits %d, misses %d, entries %d; want 0, 244, 244",
				i, c.Hits, c.Misses, c.Entries)
		}
	}
}

// TestDatasetEndpointMatchesCommittedDataset pins the acceptance
// criterion: the dataset regenerated through the service path is
// byte-identical to the committed seed-42 companion files.
func TestDatasetEndpointMatchesCommittedDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("full 45x61 grid in -short mode")
	}
	_, ts := testServer(t)
	for table, file := range map[string]string{
		"measurements": "measurements.csv",
		"aggregates":   "aggregates.csv",
	} {
		code, got := get(t, ts.URL+"/v1/dataset?table="+table)
		if code != http.StatusOK {
			t.Fatalf("%s: %d", table, code)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: service bytes differ from committed dataset/%s (%d vs %d bytes)",
				table, file, len(got), len(want))
		}
	}
	if code, _ := get(t, ts.URL+"/v1/dataset?table=nope"); code != http.StatusBadRequest {
		t.Fatalf("unknown table accepted: %d", code)
	}
}

// TestDatasetServedFromMeasureCache pins the daemon's one cell path: a
// server that measured the study grid through /v1/measure answers both
// dataset tables from that cache — the reference's 244 cells and the
// grid's 2,745 all hits, not one fill — with the committed bytes.
func TestDatasetServedFromMeasureCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full 45x61 grid in -short mode")
	}
	srv := NewServer(Options{Seed: 42})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	req := MeasureRequest{Cells: make([]CellRequest, len(jobs))}
	for i, j := range jobs {
		cfg := ConfigToJSON(j.CP.Config)
		req.Cells[i] = CellRequest{Benchmark: j.Bench.Name, Processor: j.CP.Proc.Name, Config: &cfg}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if code, b := postMeasure(t, ts.URL, string(body)); code != http.StatusOK {
		t.Fatalf("measure grid: %d %.200s", code, b)
	}

	refCells := 4 * len(workload.All())
	before := srv.Stats().Cache
	for i, file := range []string{"measurements", "aggregates"} {
		code, got := get(t, ts.URL+"/v1/dataset?table="+file)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", file, code, got)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: bytes differ from committed dataset/%s.csv (%d vs %d bytes)", file, file, len(got), len(want))
		}
		st := srv.Stats().Cache
		if st.Misses != before.Misses {
			t.Errorf("after %s: %d fills, want 0", file, st.Misses-before.Misses)
		}
		if hits, want := st.Hits-before.Hits, int64((i+1)*(refCells+len(jobs))); hits != want {
			t.Errorf("after %s: %d cache hits, want %d", file, hits, want)
		}
	}
}

// TestExperimentEndpointsMatchLocalGenerators: every artifact the
// daemon serves is byte-identical to its generator run over a local
// harness at the same seed. A one-worker daemon also shows that a
// generation never waits on the pool slot its own cells need.
func TestExperimentEndpointsMatchLocalGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("every generator twice in -short mode")
	}
	srv := NewServer(Options{Seed: 42, Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	local, err := experiments.NewContext(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ExperimentIDs() {
		code, b := get(t, ts.URL+"/v1/experiments/"+id)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", id, code, b)
		}
		var doc struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		res, err := experimentRegistry[id](local)
		if err != nil {
			t.Fatalf("%s locally: %v", id, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc.Result, want) {
			t.Errorf("%s: served result differs from the local generator's (%d vs %d bytes)", id, len(doc.Result), len(want))
		}
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	code, b := postMeasure(t, ts.URL, `{"cells":[{"benchmark":"jess","processor":"i5 (32)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("measure before drain: %d %s", code, b)
	}

	srv.Drain()
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	if code, _ = postMeasure(t, ts.URL, `{"cells":[{"benchmark":"jess","processor":"i5 (32)"}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("measure while draining: %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/table3"); code != http.StatusServiceUnavailable {
		t.Fatalf("experiment while draining: %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/dataset"); code != http.StatusServiceUnavailable {
		t.Fatalf("dataset while draining: %d, want 503", code)
	}
	if st := srv.Stats(); !st.Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestHarnessCacheEviction exercises the per-seed harness LRU: more
// distinct seeds than capacity must still serve correct results.
func TestHarnessCacheEviction(t *testing.T) {
	hc := newHarnessCache(2)
	for _, seed := range []int64{1, 2, 3, 1, 2} {
		h, err := hc.get(seed)
		if err != nil {
			t.Fatal(err)
		}
		if h == nil {
			t.Fatalf("seed %d: nil harness", seed)
		}
	}
	if n := hc.lru.Len(); n != 2 {
		t.Fatalf("%d harnesses resident, capacity 2", n)
	}
}

// TestMeasureFullDetail verifies the reconstruction-grade response
// shape: detail=full carries every run sample, the mean counters, and
// both confidence intervals, while the default shape stays unchanged
// (no "full" key on the wire).
func TestMeasureFullDetail(t *testing.T) {
	_, ts := testServer(t)

	code, body := postMeasure(t, ts.URL, `{"detail":"full","cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("full-detail POST: %d %s", code, body)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	cell := resp.Cells[0]
	if cell.Full == nil {
		t.Fatal("detail=full response lacks the full block")
	}
	if len(cell.Full.RunSamples) != cell.Runs || cell.Runs == 0 {
		t.Fatalf("full detail has %d run samples, summary says %d runs", len(cell.Full.RunSamples), cell.Runs)
	}
	if cell.Full.TimeCI.N != cell.Runs || cell.Full.TimeCI.Level != 0.95 {
		t.Fatalf("time CI %+v inconsistent with %d runs", cell.Full.TimeCI, cell.Runs)
	}
	if cell.Full.Counters.Instructions <= 0 {
		t.Fatalf("full detail counters empty: %+v", cell.Full.Counters)
	}

	code, body = postMeasure(t, ts.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("summary POST: %d %s", code, body)
	}
	if bytes.Contains(body, []byte(`"full"`)) {
		t.Fatalf("summary response leaks the full block: %s", body)
	}

	if code, body := postMeasure(t, ts.URL, `{"detail":"nope","cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad detail: %d %s, want 400", code, body)
	}
}

// TestMetricsz verifies the Prometheus exposition endpoint serves the
// cache, queue, and request families with parseable lines.
func TestMetricsz(t *testing.T) {
	srv, ts := testServer(t)
	// Ensure at least one measured cell so counters are nonzero.
	if code, b := postMeasure(t, ts.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`); code != http.StatusOK {
		t.Fatalf("measure: %d %s", code, b)
	}

	code, body := get(t, ts.URL+"/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	text := string(body)
	for _, family := range []string{
		"powerperfd_uptime_seconds",
		"powerperfd_cache_hits_total",
		"powerperfd_cache_misses_total",
		"powerperfd_cache_coalesced_total",
		"powerperfd_queue_depth",
		"powerperfd_requests_total{endpoint=\"measure\"}",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metricsz missing %s", family)
		}
	}
	// /metricsz is the one scrape page.
	if code, _ := get(t, ts.URL+"/statsz"); code != http.StatusNotFound {
		t.Errorf("GET /statsz: %d, want 404", code)
	}
	// Spot-check a value: the shard entries must sum to the entry
	// count.
	st := srv.Stats()
	sum := 0
	for _, n := range st.Cache.Shards {
		sum += n
	}
	if len(st.Cache.Shards) != 16 || sum != st.Cache.Entries {
		t.Errorf("shard occupancy %v (sum %d) inconsistent with %d entries",
			st.Cache.Shards, sum, st.Cache.Entries)
	}
}

// TestHooksInjectFaults verifies the test seam: a hook error surfaces
// as a 500 and is not cached, so the next request recomputes cleanly.
func TestHooksInjectFaults(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	srv := NewServer(Options{Seed: 42, Workers: 2, Hooks: &Hooks{
		BeforeMeasure: func(seed int64, bench, processor string) error {
			if fail.Load() {
				return fmt.Errorf("injected fault for %s on %s", bench, processor)
			}
			return nil
		},
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	body := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`
	if code, b := postMeasure(t, ts.URL, body); code != http.StatusInternalServerError {
		t.Fatalf("faulted measure: %d %s, want 500", code, b)
	}
	fail.Store(false)
	if code, b := postMeasure(t, ts.URL, body); code != http.StatusOK {
		t.Fatalf("post-fault measure: %d %s, want 200 (errors must not be cached)", code, b)
	}
}
