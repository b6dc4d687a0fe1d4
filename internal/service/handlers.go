package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// maxRequestBytes bounds a request body; the largest legitimate measure
// request (MaxCells fully explicit cells) fits comfortably.
const maxRequestBytes = 4 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /v1/measure            measure a batch of cells (cached)
//	GET  /v1/experiments        list experiment ids
//	GET  /v1/experiments/{id}   regenerate one paper artifact (cached)
//	GET  /v1/dataset            stream the full-study CSV
//	GET  /v1/traces             recent spans, Chrome trace-event JSON
//	GET  /healthz               liveness (503 while draining)
//	GET  /metricsz              counters + latency histograms, Prometheus text
//
// With a study store attached (Options.Store), the studies API mounts:
//
//	GET  /v1/studies            sealed study list + store inventory
//	GET  /v1/studies/rows       filtered stored rows, JSON
//	GET  /v1/studies/aggregates Section 2.6 aggregates over stored rows
//	GET  /v1/studies/export     stored slice as dataset CSVs
//	GET  /v1/studies/trend      Pareto-drift replay across technology nodes
//
// With an SLO engine attached (Options.SLO), the objective API mounts:
//
//	GET  /v1/sloz               objectives, error budgets, burn-rate alerts
//
// With a monitor attached (AttachMonitor), three more routes mount:
//
//	GET  /v1/alertz             fleet alerts (pending/firing/resolved), JSON
//	GET  /v1/traceview          assembled fleet traces: critical paths, RED, search
//	GET  /debug/dashboard       self-contained HTML fleet dashboard
//
// Every route runs under the observe middleware: a server span per
// request (stitched into the caller's trace via X-Trace-Id), the
// per-endpoint latency histogram, and one structured access line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/measure", s.handleMeasure)
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentIndex)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("GET /v1/dataset", s.handleDataset)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	if s.sloEng != nil {
		mux.HandleFunc("GET /v1/sloz", s.handleSloz)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if s.opts.Store != nil {
		mux.HandleFunc("GET /v1/studies", s.handleStudiesIndex)
		mux.HandleFunc("GET /v1/studies/rows", s.handleStudyRows)
		mux.HandleFunc("GET /v1/studies/aggregates", s.handleStudyAggregates)
		mux.HandleFunc("GET /v1/studies/export", s.handleStudyExport)
		mux.HandleFunc("GET /v1/studies/trend", s.handleStudyTrend)
	}
	if s.mon != nil {
		// Attached via AttachMonitor: the daemon's own fleet view.
		mux.Handle("GET /v1/alertz", s.mon.AlertzHandler())
		mux.Handle("GET /v1/traceview", s.mon.TraceviewHandler())
		mux.Handle("GET /debug/dashboard", s.mon.DashboardHandler())
	}
	return s.observe(mux)
}

// writeJSON renders v with a fixed encoder configuration so equivalent
// states produce byte-identical bodies.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	s.reqMeasure.Add(1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	req, cells, err := DecodeMeasureRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	seed := s.opts.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	l := laneInteractive
	if req.Lane == LaneBulk {
		l = laneBulk
	}
	full := req.Detail == DetailFull

	// The recorder (nil without a store) captures the batch for the
	// study log; only a fully measured batch commits.
	rec := s.ingest.begin(seed, len(cells))
	defer rec.release()

	if r.URL.Query().Get("stream") == "1" {
		s.reqMeasureStream.Add(1)
		s.measureStream(w, r, seed, l, full, cells, rec)
		return
	}

	results := make([]CellResult, len(cells))
	err = s.fanOutMeasure(r.Context(), seed, l, full, cells, func(i int, m *harness.Measurement, res *CellResult) {
		rec.observe(i, m)
		results[i] = *res
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Client went away; nothing useful to write.
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.commitStudy(r.Context(), rec)
	writeJSON(w, http.StatusOK, MeasureResponse{Seed: seed, Cells: results})
}

// fanOutMeasure measures cells with a claim-by-index fan-out across a
// bounded set of request goroutines, calling sink (possibly from many
// goroutines at once) for each measured cell, and returns the first
// error. Real computation is admitted by the shared worker pool through
// lane l; these goroutines mostly wait on cache fills, so the cap only
// bounds bookkeeping, not parallelism. A batch whose every cell reached
// sink is complete even if ctx ended afterwards.
func (s *Server) fanOutMeasure(ctx context.Context, seed int64, l lane, full bool, cells []cell, sink func(i int, m *harness.Measurement, res *CellResult)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fan := len(cells)
	if fan > 64 {
		fan = 64
	}
	var next, sunk atomic.Int64
	// Mutex, not atomic.Value: measureCell failures carry heterogeneous
	// concrete error types, which atomic.Value.CompareAndSwap rejects by
	// panicking.
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < fan; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || ctx.Err() != nil {
					return
				}
				m, err := s.measureCell(ctx, seed, l, cells[i])
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					cancel()
					return
				}
				sink(i, m, cellResult(cells[i], m, full))
				sunk.Add(1)
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if sunk.Load() == int64(len(cells)) {
		return nil
	}
	// Parent cancellation (client disconnect) before every cell reached
	// sink means the batch is incomplete.
	return ctx.Err()
}

// measureStream serves one measure request as a chunked stream of
// binary frames (see stream.go for the frame vocabulary): the header
// frame first, one cell frame per completed cell in completion order,
// keep-alives while nothing is ready, and a terminal done or error
// frame. The 200 status commits before any cell computes — a failure
// mid-batch surfaces as the terminal error frame, and a severed stream
// (no terminal frame) tells the client every unsent cell is unmeasured.
func (s *Server) measureStream(w http.ResponseWriter, r *http.Request, seed int64, l lane, full bool, cells []cell, rec *studyRecorder) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	w.Header().Set("Content-Type", StreamContentType)
	w.WriteHeader(http.StatusOK)
	sw := newStreamWriter(w, flusherOf(w))
	if err := sw.send(&StreamEvent{Header: &StreamHeader{Seed: seed, Cells: len(cells)}}); err != nil {
		return
	}
	sw.flush()

	ch := make(chan StreamCell, 64)
	var fanErr error
	go func() {
		// The deferred close runs after the fanErr write, and run only
		// reads fanErr after seeing the channel closed, so the error
		// handoff is race-free.
		defer close(ch)
		fanErr = s.fanOutMeasure(ctx, seed, l, full, cells, func(i int, m *harness.Measurement, res *CellResult) {
			rec.observe(i, m)
			ch <- StreamCell{Index: i, Result: *res}
		})
	}()
	if err := sw.run(ch, len(cells), s.opts.StreamKeepAlive, func() error { return fanErr }); err != nil {
		// The client went away mid-stream. Cancel the fan-out and drain
		// the channel so no sender blocks forever; in-flight cells finish
		// into the cache, where the retry will find them.
		cancel()
		for range ch {
		}
	}
	// The channel is closed, so fanErr is settled: a clean fan-out means
	// every cell measured, and the study commits — even when the client
	// left before the terminal frame, as a coordinator does once the
	// last cell it needed has arrived.
	if fanErr == nil {
		s.commitStudy(ctx, rec)
	}
}

// commitStudy hands a completed batch to the store's ingest queue under
// a service.ingest span, so trace analytics can attribute durable-write
// time as its own pipeline stage. Without a store the recorder is inert
// and no span is minted.
func (s *Server) commitStudy(ctx context.Context, rec *studyRecorder) {
	if s.ingest == nil {
		rec.commit()
		return
	}
	_, span := s.tracer.StartSpan(ctx, "service.ingest")
	rec.commit()
	span.End()
}

// experimentRegistry maps URL ids to the paper's artifact generators.
// Table 3 is static specification data; everything else measures through
// the shared daemon-seed context.
var experimentRegistry = map[string]func(*experiments.Context) (any, error){
	"table2":   func(c *experiments.Context) (any, error) { return experiments.Table2(c, nil) },
	"table3":   func(*experiments.Context) (any, error) { return experiments.Table3(), nil },
	"table4":   func(c *experiments.Context) (any, error) { return experiments.Table4(c) },
	"table5":   func(c *experiments.Context) (any, error) { return experiments.Table5(c) },
	"figure1":  func(c *experiments.Context) (any, error) { return experiments.Figure1(c) },
	"figure2":  func(c *experiments.Context) (any, error) { return experiments.Figure2(c) },
	"figure3":  func(c *experiments.Context) (any, error) { return experiments.Figure3(c) },
	"figure4":  func(c *experiments.Context) (any, error) { return experiments.Figure4(c) },
	"figure5":  func(c *experiments.Context) (any, error) { return experiments.Figure5(c) },
	"figure6":  func(c *experiments.Context) (any, error) { return experiments.Figure6(c) },
	"figure7":  func(c *experiments.Context) (any, error) { return experiments.Figure7(c) },
	"figure8":  func(c *experiments.Context) (any, error) { return experiments.Figure8(c) },
	"figure9":  func(c *experiments.Context) (any, error) { return experiments.Figure9(c) },
	"figure10": func(c *experiments.Context) (any, error) { return experiments.Figure10(c) },
	"figure11": func(c *experiments.Context) (any, error) { return experiments.Figure11(c) },
	"figure12": func(c *experiments.Context) (any, error) { return experiments.Figure12(c) },
	// Section 7 extras: analyses beyond the numbered artifacts.
	"section31":       func(c *experiments.Context) (any, error) { return experiments.Section31(c) },
	"findings":        func(c *experiments.Context) (any, error) { return experiments.Findings(c) },
	"jvmcomparison":   func(c *experiments.Context) (any, error) { return experiments.JVMComparison(c) },
	"metercomparison": func(c *experiments.Context) (any, error) { return experiments.MeterComparison(c) },
	"kernelbug":       func(c *experiments.Context) (any, error) { return experiments.KernelBug(c) },
	"heapsweep":       func(c *experiments.Context) (any, error) { return experiments.HeapSweep(c) },
	"scaling":         func(c *experiments.Context) (any, error) { return experiments.ScalingAnalysis(c) },
	"breakdown":       func(c *experiments.Context) (any, error) { return experiments.PowerBreakdown(c) },
}

// ExperimentIDs lists the registry in stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(experimentRegistry))
	for id := range experimentRegistry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s *Server) handleExperimentIndex(w http.ResponseWriter, r *http.Request) {
	s.reqExperiments.Add(1)
	writeJSON(w, http.StatusOK, struct {
		Experiments []string `json:"experiments"`
	}{ExperimentIDs()})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	s.reqExperiments.Add(1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	id := r.PathValue("id")
	body, err := s.experimentJSON(r.Context(), id)
	switch {
	case errors.Is(err, errNotFound):
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id))
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// experimentJSON returns the rendered artifact, cached by id: the
// generators draw on the shared measurement context, so each artifact is
// computed once per daemon lifetime.
func (s *Server) experimentJSON(ctx context.Context, id string) ([]byte, error) {
	gen, ok := experimentRegistry[id]
	if !ok {
		return nil, errNotFound
	}
	v, err := s.cache.GetOrCompute(ctx, "exp|"+id, func() (any, error) {
		return s.pool.Do(ctx, func() (any, error) {
			c, err := s.experimentsContext()
			if err != nil {
				return nil, err
			}
			res, err := gen(c)
			if err != nil {
				return nil, err
			}
			return json.Marshal(struct {
				ID     string `json:"id"`
				Seed   int64  `json:"seed"`
				Result any    `json:"result"`
			}{id, s.opts.Seed, res})
		})
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// flushWriter pushes chunks through to the client as soon as the CSV
// stream flushes, so a dataset download shows progress rather than
// buffering 2700 rows.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	s.reqDataset.Add(1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		table = "measurements"
	}
	var stream func(context.Context, *experiments.Context) error
	switch table {
	case "measurements":
		stream = func(ctx context.Context, c *experiments.Context) error {
			return experiments.StreamMeasurementsCSV(ctx, c, nil, flushWriter{w, flusherOf(w)}, s.opts.Workers)
		}
	case "aggregates":
		stream = func(ctx context.Context, c *experiments.Context) error {
			return experiments.StreamAggregatesCSV(ctx, c, nil, flushWriter{w, flusherOf(w)}, s.opts.Workers)
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown table %q (want measurements or aggregates)", table))
		return
	}
	c, err := s.experimentsContext()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", table+".csv"))
	// The status line is committed before streaming; a mid-stream error
	// can only abort the connection, which the CSV's missing final rows
	// make detectable.
	if err := stream(r.Context(), c); err != nil {
		_ = err // connection-level failure; nothing more to write
	}
}

func flusherOf(w http.ResponseWriter) http.Flusher {
	f, _ := w.(http.Flusher)
	return f
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
