package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/store"
	"repro/internal/workload"
)

// storeServer builds a server backed by a fresh study store.
func storeServer(t *testing.T, opts Options) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts.Store = st
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, st
}

// configBody renders one configuration's 61-cell measure request — the
// same shape the study scheduler posts per lease.
func configBody(t *testing.T, cp proc.ConfiguredProcessor) string {
	t.Helper()
	req := MeasureRequest{Lane: LaneBulk}
	for _, b := range workload.All() {
		req.Cells = append(req.Cells, CellRequest{
			Benchmark: b.Name,
			Processor: cp.Proc.Name,
			Config: &ConfigJSON{
				Cores: cp.Config.Cores, SMTWays: cp.Config.SMTWays,
				ClockGHz: cp.Config.ClockGHz, Turbo: cp.Config.Turbo,
			},
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// waitRecorded polls the server's stats until the ingest has sealed n
// studies (it is asynchronous behind the measure response).
func waitRecorded(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.Stats()
		if st.Store == nil {
			t.Fatal("stats have no store block on a store-backed daemon")
		}
		if st.Store.Recorded >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest sealed %d studies, want %d", st.Store.Recorded, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStudiesRoundTripByteIdenticalCSV pins the PR's acceptance
// criterion: run the full seed-42 study through the daemon one
// configuration lease at a time (as the scheduler does), then export
// the stored data through /v1/studies/export — the CSVs must be
// byte-identical to the live dataset endpoint's output, because the
// store preserves float bits and the export reuses the live streaming
// code path.
func TestStudiesRoundTripByteIdenticalCSV(t *testing.T) {
	srv, ts, st := storeServer(t, Options{Workers: 4})
	cps := proc.ConfigSpace()
	for _, cp := range cps {
		code, body := postMeasure(t, ts.URL, configBody(t, cp))
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", cp, code, body)
		}
	}
	waitRecorded(t, srv, int64(len(cps)))

	// The study list reflects one sealed segment per lease.
	code, b := get(t, ts.URL+"/v1/studies")
	if code != http.StatusOK {
		t.Fatalf("studies index: %d %s", code, b)
	}
	var idx struct {
		Store   store.Stats  `json:"store"`
		Studies []store.Meta `json:"studies"`
	}
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Studies) != len(cps) {
		t.Fatalf("listed %d studies, want %d", len(idx.Studies), len(cps))
	}
	if idx.Store.Rows != int64(len(cps)*61) {
		t.Fatalf("store holds %d rows, want %d", idx.Store.Rows, len(cps)*61)
	}

	// Filtered row queries hit the same data.
	q := url.Values{"benchmark": {"mcf"}, "processor": {proc.I7Name}}
	code, b = get(t, ts.URL+"/v1/studies/rows?"+q.Encode())
	if code != http.StatusOK {
		t.Fatalf("rows: %d %s", code, b)
	}
	var rows struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	i7Configs := 0
	for _, cp := range cps {
		if cp.Proc.Name == proc.I7Name {
			i7Configs++
		}
	}
	if rows.Count != i7Configs {
		t.Fatalf("mcf-on-i7 rows = %d, want %d (one per i7 config)", rows.Count, i7Configs)
	}

	// Byte-identical export against the live streamers.
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"measurements", "aggregates"} {
		code, stored := get(t, ts.URL+"/v1/studies/export?table="+table)
		if code != http.StatusOK {
			t.Fatalf("export %s: %d %s", table, code, stored)
		}
		var live bytes.Buffer
		if table == "measurements" {
			err = experiments.StreamMeasurementsCSVFrom(t.Context(), h, ref, nil, &live, 4)
		} else {
			err = experiments.StreamAggregatesCSVFrom(t.Context(), h, ref, nil, &live, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, live.Bytes()) {
			t.Fatalf("stored %s.csv is not byte-identical to the live stream (%d vs %d bytes)",
				table, len(stored), live.Len())
		}
	}

	// Server-side aggregation over the stored rows covers every config.
	code, b = get(t, ts.URL+"/v1/studies/aggregates")
	if code != http.StatusOK {
		t.Fatalf("aggregates: %d %s", code, b)
	}
	var aggs struct {
		Seeds      []int64              `json:"seeds"`
		Cells      int                  `json:"cells"`
		Aggregates []StudyAggregateJSON `json:"aggregates"`
		Skipped    []string             `json:"skipped"`
	}
	if err := json.Unmarshal(b, &aggs); err != nil {
		t.Fatal(err)
	}
	if len(aggs.Aggregates) != len(cps) || len(aggs.Skipped) != 0 {
		t.Fatalf("aggregated %d configs (%d skipped), want %d/0", len(aggs.Aggregates), len(aggs.Skipped), len(cps))
	}
	if len(aggs.Seeds) != 1 || aggs.Seeds[0] != 42 {
		t.Fatalf("seeds = %v, want [42]", aggs.Seeds)
	}

	// The trend replay sees all four technology generations from stored
	// data alone.
	code, b = get(t, ts.URL+"/v1/studies/trend")
	if code != http.StatusOK {
		t.Fatalf("trend: %d %s", code, b)
	}
	var rep struct {
		Generations []struct {
			NodeNM   int      `json:"node_nm"`
			Frontier []string `json:"frontier"`
		} `json:"generations"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Generations) != 4 {
		t.Fatalf("trend saw %d generations, want 4", len(rep.Generations))
	}
	for _, g := range rep.Generations {
		if len(g.Frontier) == 0 {
			t.Fatalf("%d nm: empty frontier", g.NodeNM)
		}
	}

	// Store stats flow through /metricsz for the fleet monitor.
	_, page := get(t, ts.URL+"/metricsz")
	for _, want := range []string{
		fmt.Sprintf("\npowerperfd_store_segments %d\n", len(cps)),
		"\npowerperfd_store_dropped_studies_total 0\n",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/metricsz lacks %q", strings.TrimSpace(want))
		}
	}
	if st.Stats().Segments != int64(len(cps)) {
		t.Fatalf("store on disk has %d segments, want %d", st.Stats().Segments, len(cps))
	}
}

// TestDrainRecordsWholeStudyOrNothing pins the shutdown ordering fix: a
// drain that begins while a study batch is mid-measurement must wait
// for the worker pool AND the batch's ingest handoff, so the store
// gains the entire study — never a prefix of it.
func TestDrainRecordsWholeStudyOrNothing(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	srv, ts, st := storeServer(t, Options{
		Workers: 2,
		Hooks: &Hooks{BeforeMeasure: func(seed int64, benchmark, processor string) error {
			enterOnce.Do(func() { close(entered) })
			<-block
			return nil
		}},
	})

	req := MeasureRequest{}
	for _, b := range workload.All()[:8] {
		req.Cells = append(req.Cells, CellRequest{Benchmark: b.Name, Processor: proc.I7Name})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	postDone := make(chan int, 1)
	go func() {
		code, _ := postMeasure(t, ts.URL, string(body))
		postDone <- code
	}()
	<-entered // a cell is inside the measurement path
	// Wait until the whole batch is admitted (in-flight or queued), so
	// the drain races only the ingest handoff — the scenario under
	// test — not the request's own submission.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if srv.pool.QueueDepth()+int(srv.pool.Inflight()) >= len(req.Cells) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never fully queued")
		}
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan struct{})
	go func() {
		srv.Drain()
		close(drainDone)
	}()
	// Give the drain a moment to reach the pool barrier, then release
	// the measurement path. The in-flight batch must run to completion.
	time.Sleep(50 * time.Millisecond)
	close(block)

	if code := <-postDone; code != http.StatusOK {
		t.Fatalf("mid-drain study finished with %d, want 200", code)
	}
	<-drainDone

	// Drain returned: the ingest is flushed and fsynced. All or nothing.
	stats := st.Stats()
	if stats.Segments != 1 || stats.Rows != 8 {
		t.Fatalf("after drain: %d segments / %d rows, want exactly 1/8", stats.Segments, stats.Rows)
	}

	// Post-drain work is rejected and records nothing.
	code, _ := postMeasure(t, ts.URL, string(body))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain measure: %d, want 503", code)
	}
	if got := st.Stats().Segments; got != 1 {
		t.Fatalf("post-drain measure grew the store to %d segments", got)
	}
}

// TestFailedBatchNotRecorded: a batch that errors mid-fan-out commits
// nothing — the store only ever holds complete studies.
func TestFailedBatchNotRecorded(t *testing.T) {
	boom := errors.New("injected fault")
	srv, ts, st := storeServer(t, Options{
		Workers: 2,
		Hooks: &Hooks{BeforeMeasure: func(seed int64, benchmark, processor string) error {
			if benchmark == "mcf" {
				return boom
			}
			return nil
		}},
	})
	body := `{"cells":[
		{"benchmark":"jess","processor":"i7 (45)"},
		{"benchmark":"mcf","processor":"i7 (45)"},
		{"benchmark":"xalan","processor":"i7 (45)"}
	]}`
	code, _ := postMeasure(t, ts.URL, body)
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted batch: %d, want 500", code)
	}
	srv.Drain()
	if got := st.Stats().Segments; got != 0 {
		t.Fatalf("failed batch left %d segments in the store", got)
	}
}

// TestStreamedStudyRecorded: the streaming path records the
// completed study just like the buffered path.
func TestStreamedStudyRecorded(t *testing.T) {
	srv, ts, st := storeServer(t, Options{Workers: 2})
	body := `{"cells":[
		{"benchmark":"jess","processor":"i5 (32)"},
		{"benchmark":"sunflow","processor":"i5 (32)"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/measure?stream=1", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitRecorded(t, srv, 1)
	stats := st.Stats()
	if stats.Segments != 1 || stats.Rows != 2 {
		t.Fatalf("streamed study stored %d segments / %d rows, want 1/2", stats.Segments, stats.Rows)
	}
}

// leavingClient is a response writer whose client goes away mid-stream:
// writes fail once gone is set, and cancel (when set) ends the request
// context the moment the client leaves, as a severed connection does.
type leavingClient struct {
	header http.Header
	writes int
	cells  int
	leave  func(kind byte, cells int) bool
	cancel context.CancelFunc
	gone   bool
}

func (c *leavingClient) Header() http.Header { return c.header }
func (c *leavingClient) WriteHeader(int)     {}

// Write walks the frames p carries — one Write may hold many — counting
// cell frames, and lets the client leave after any frame. The stream
// writer writes whole frames, so a frame cut by the end of p is a
// writer bug.
func (c *leavingClient) Write(p []byte) (int, error) {
	if c.gone {
		return 0, errors.New("client gone")
	}
	c.writes++
	for off := 0; off < len(p); {
		kind := p[off]
		n, k := binary.Uvarint(p[off+1:])
		if k <= 0 || off+1+k+int(n) > len(p) {
			panic(fmt.Sprintf("write %d cuts a frame at byte %d of %d", c.writes, off, len(p)))
		}
		off += 1 + k + int(n)
		if kind == frameCell {
			c.cells++
		}
		if c.leave(kind, c.cells) {
			c.gone = true
			if c.cancel != nil {
				c.cancel()
				return len(p), nil // the write left before the client did
			}
			return 0, errors.New("client gone")
		}
	}
	return len(p), nil
}

// TestStreamCommitsWhenClientLeavesAfterLastCell: a streamed batch whose
// every cell was measured lands in the store even when the client
// leaves before the terminal done frame — the scheduler cancels a pass's
// streams as soon as the pass's last cell arrives, and a lost commit
// would leave the stored study one lease short. A batch the cache held
// whole is measured before anything is written, so it commits even
// when its one write fails.
func TestStreamCommitsWhenClientLeavesAfterLastCell(t *testing.T) {
	body := `{"lane":"bulk","cells":[
		{"benchmark":"jess","processor":"i5 (32)"},
		{"benchmark":"sunflow","processor":"i5 (32)"},
		{"benchmark":"mcf","processor":"i5 (32)"}
	]}`
	for _, tc := range []struct {
		name     string
		resident bool // the cache holds every cell before the request
		cancel   bool
		leave    func(kind byte, cells int) bool
		seen     int // cells the client read before leaving
	}{
		{"cancelled after the last cell line", false, true,
			func(_ byte, cells int) bool { return cells == 3 }, 3},
		{"done line write fails", false, false,
			func(kind byte, _ int) bool { return kind == frameDone }, 3},
		{"resident reply's one write fails", true, false,
			func(kind byte, _ int) bool { return kind == frameHeader }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, st := storeServer(t, Options{Workers: 2})
			if tc.resident {
				// Fill the cache outside the handler, so nothing commits.
				_, cells, err := DecodeMeasureRequest(strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.fanOutMeasure(context.Background(), srv.opts.Seed, laneBulk, cells, nil,
					func(int, *harness.Measurement) {}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &leavingClient{header: http.Header{}, leave: tc.leave}
			if tc.cancel {
				w.cancel = cancel
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/measure?stream=1", strings.NewReader(body)).WithContext(ctx)
			srv.Handler().ServeHTTP(w, req)
			if !w.gone || w.cells != tc.seen {
				t.Fatalf("client saw %d cells (gone %v), want %d before leaving", w.cells, w.gone, tc.seen)
			}
			if tc.resident && w.writes != 1 {
				t.Fatalf("resident reply took %d writes, want 1", w.writes)
			}
			srv.Drain()
			if stats := st.Stats(); stats.Segments != 1 || stats.Rows != 3 {
				t.Fatalf("stored %d segments / %d rows, want 1/3", stats.Segments, stats.Rows)
			}
		})
	}
}

// TestFanOutCompleteDespiteLateCancel: a fan-out whose every cell
// reached its sink is complete, even if the caller cancelled right after
// the last one.
func TestFanOutCompleteDespiteLateCancel(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 2})
	defer srv.Drain()
	_, cells, err := DecodeMeasureRequest(strings.NewReader(`{"cells":[
		{"benchmark":"jess","processor":"i5 (32)"},
		{"benchmark":"sunflow","processor":"i5 (32)"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sunk atomic.Int64
	err = srv.fanOutMeasure(ctx, 42, laneBulk, cells, nil, func(int, *harness.Measurement) {
		if sunk.Add(1) == int64(len(cells)) {
			cancel()
		}
	})
	if err != nil {
		t.Fatalf("complete fan-out reported %v", err)
	}
}

// TestStudiesRoutesAbsentWithoutStore: a storeless daemon serves 404
// for the studies API and omits the store block from its stats and
// /metricsz.
func TestStudiesRoutesAbsentWithoutStore(t *testing.T) {
	srv, ts := testServer(t)
	code, _ := get(t, ts.URL+"/v1/studies")
	if code != http.StatusNotFound {
		t.Fatalf("/v1/studies without a store: %d, want 404", code)
	}
	if st := srv.Stats(); st.Store != nil {
		t.Fatalf("storeless stats grew a store block: %+v", st.Store)
	}
	if _, page := get(t, ts.URL+"/metricsz"); strings.Contains(string(page), "powerperfd_store_") {
		t.Fatal("storeless /metricsz grew a store block")
	}
}
