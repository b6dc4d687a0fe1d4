package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/workload"
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
//	GET  /v1/traces             recent spans, span records (JSON)
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
	err = s.fanOutMeasure(r.Context(), seed, l, cells, nil, func(i int, m *harness.Measurement) {
		rec.observe(i, m)
		var d *CellDetail
		if full {
			d = new(CellDetail)
		}
		setCellResult(&results[i], d, cells[i], m)
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
// bounded set of goroutines, calling sink (possibly from many goroutines
// at once) for each measured cell, and returns the first error. keys,
// when non-nil, holds each cell's cache key, computed once by a caller
// that looked the cells up already; nil computes them here. The
// caller claims cells too, so a one-cell request starts no goroutine
// and waits on none. Real computation is admitted by the shared worker
// pool through lane l; these goroutines mostly wait on cache fills, so
// the cap only bounds bookkeeping, not parallelism. A batch whose every
// cell reached sink is complete even if ctx ended afterwards.
func (s *Server) fanOutMeasure(ctx context.Context, seed int64, l lane, cells []harness.Job, keys []string, sink func(i int, m *harness.Measurement)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next, sunk atomic.Int64
	// Mutex, not atomic.Value: measureCell failures carry heterogeneous
	// concrete error types, which atomic.Value.CompareAndSwap rejects by
	// panicking.
	var errMu sync.Mutex
	var firstErr error
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cells) || ctx.Err() != nil {
				return
			}
			var key string
			if keys != nil {
				key = keys[i]
			} else {
				key = cellKey(seed, cells[i])
			}
			m, err := s.measureCell(ctx, seed, l, cells[i], key)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
				return
			}
			sink(i, m)
			sunk.Add(1)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < min(len(cells), 64); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
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

// seedSource is an experiments.Source over the daemon's own cell path:
// it measures a batch at one seed through fanOutMeasure on the bulk
// lane, so the dataset and experiment endpoints read and fill the cache
// /v1/measure serves. The pool bounds computation, so workers is
// ignored.
type seedSource struct {
	s    *Server
	seed int64
}

func (src seedSource) MeasureBatch(ctx context.Context, jobs []harness.Job, _ int) ([]*harness.Measurement, error) {
	ms := make([]*harness.Measurement, len(jobs))
	if err := src.s.fanOutMeasure(ctx, src.seed, laneBulk, jobs, nil, func(i int, m *harness.Measurement) { ms[i] = m }); err != nil {
		return nil, err
	}
	return ms, nil
}

// measure is the source's one-cell form, the experiments.Context's
// MeasureFunc.
func (src seedSource) measure(ctx context.Context) harness.MeasureFunc {
	return func(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*harness.Measurement, error) {
		j := harness.Job{Bench: b, CP: cp}
		return src.s.measureCell(ctx, src.seed, laneBulk, j, cellKey(src.seed, j))
	}
}

// measureStream serves one measure request as a stream of binary
// frames (see stream.go for the frame vocabulary): the header frame
// first, one cell frame per completed cell in completion order,
// keep-alives while nothing is ready, and a terminal done or error
// frame.
//
// Cells the cache already holds are answered first, in request order,
// from the handler's own goroutine; only the rest go to the fan-out. A
// lease whose every cell is resident is therefore one reply, written
// once with its Content-Length (unless it outgrows the writer's
// buffer), and starts no goroutine, channel or timer. Otherwise the
// resident cells are flushed with the header, and the 200 status
// commits before any cell computes — a failure mid-batch surfaces as
// the terminal error frame, and a severed stream (no terminal frame)
// tells the client every unsent cell is unmeasured.
//
// A batch commits to the study store if and only if every cell was
// measured, whatever became of the client's writes.
func (s *Server) measureStream(w http.ResponseWriter, r *http.Request, seed int64, l lane, full bool, cells []harness.Job, rec *studyRecorder) {
	ctx := r.Context()
	w.Header().Set("Content-Type", StreamContentType)
	sw := newStreamWriter(w, flusherOf(w))
	defer sw.release()
	// Frames only buffer until the first write out, whose error the
	// writer keeps and reports from then on.
	_ = sw.send(&StreamEvent{Header: &StreamHeader{Seed: seed, Cells: len(cells)}})

	// The cells to compute, by request index, and their cache keys.
	var todo []int
	var keys []string
	for i, c := range cells {
		key := cellKey(seed, c)
		m := s.residentCell(ctx, seed, c, key)
		if m == nil {
			if todo == nil {
				todo, keys = make([]int, 0, len(cells)-i), make([]string, 0, len(cells)-i)
			}
			todo = append(todo, i)
			keys = append(keys, key)
			continue
		}
		rec.observe(i, m)
		// The pass goes on past a failed write, so a batch the cache
		// holds whole is measured, and commits, whatever the client
		// does.
		_ = sw.sendCell(i, c, m, full)
	}
	if len(todo) == 0 {
		_ = sw.send(&StreamEvent{Done: &StreamDone{Cells: sw.cells}})
		if !sw.wrote {
			w.Header().Set("Content-Length", strconv.Itoa(len(sw.buf)))
		}
		// Every cell is measured: the batch commits even if the
		// client is gone.
		_ = sw.writeOut()
		s.commitStudy(ctx, rec)
		return
	}
	if err := sw.flush(); err != nil {
		return
	}

	// A measured cell crosses to the writer as its request index and
	// the measurement the cache already holds; the writer encodes it
	// from there. One slot per cell lets a lease's fan-out hand off
	// every cell without waiting on the writer, and the cap is the
	// fan-out's 64 goroutines: a full buffer then holds one finished
	// cell per goroutine, which the writer coalesces into one flush.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rest := make([]harness.Job, len(todo))
	for k, i := range todo {
		rest[k] = cells[i]
	}
	ch := make(chan streamItem, min(len(rest), 64))
	var fanErr error
	go func() {
		// The deferred close runs after the fanErr write, and run only
		// reads fanErr after seeing the channel closed, so the error
		// handoff is race-free.
		defer close(ch)
		fanErr = s.fanOutMeasure(ctx, seed, l, rest, keys, func(k int, m *harness.Measurement) {
			rec.observe(todo[k], m)
			ch <- streamItem{index: todo[k], m: m}
		})
	}()
	if err := sw.run(ch, cells, full, s.opts.StreamKeepAlive, func() error { return fanErr }); err != nil {
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
// Table 3 is static specification data, generated without a context so
// that it fills no cell; everything else measures through the daemon's
// cell cache at the daemon seed.
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

// experimentJSON returns the rendered artifact, cached by id in the
// experiments cache: the generators measure through the daemon's cell
// path, so each artifact is computed once per daemon lifetime and its
// cells serve every other endpoint. The generation outlives a client
// that leaves, as every cache fill does; Drain still stops it at its
// next uncached cell.
func (s *Server) experimentJSON(ctx context.Context, id string) ([]byte, error) {
	gen, ok := experimentRegistry[id]
	if !ok {
		return nil, errNotFound
	}
	v, err := s.experiments.GetOrCompute(ctx, id, func() (any, error) {
		var c *experiments.Context
		if id != "table3" {
			ctx := context.WithoutCancel(ctx)
			src := seedSource{s, s.opts.Seed}
			ref, err := experiments.ReferenceFrom(ctx, src, 0)
			if err != nil {
				return nil, err
			}
			c = &experiments.Context{Measure: src.measure(ctx), Ref: ref}
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

// csvTable resolves ?table= (measurements by default, or aggregates) for
// the two CSV endpoints. For any other value it writes the 400 and
// returns nil; otherwise it returns the function that sets the download
// headers and streams that table, committing the status line first, so a
// mid-stream error shows only as the CSV's missing final rows.
func csvTable(w http.ResponseWriter, r *http.Request) func(src experiments.Source, ref *harness.Reference, cps []proc.ConfiguredProcessor, workers int) {
	table := r.URL.Query().Get("table")
	if table == "" {
		table = "measurements"
	}
	stream := experiments.StreamMeasurementsCSVFrom
	switch table {
	case "measurements":
	case "aggregates":
		stream = experiments.StreamAggregatesCSVFrom
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown table %q (want measurements or aggregates)", table))
		return nil
	}
	return func(src experiments.Source, ref *harness.Reference, cps []proc.ConfiguredProcessor, workers int) {
		w.Header().Set("Content-Type", "text/csv")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", table+".csv"))
		_ = stream(r.Context(), src, ref, cps, flushWriter{w, flusherOf(w)}, workers)
	}
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	s.reqDataset.Add(1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	send := csvTable(w, r)
	if send == nil {
		return
	}
	src := seedSource{s, s.opts.Seed}
	ref, err := experiments.ReferenceFrom(r.Context(), src, 0)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	send(src, ref, nil, 0)
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
