package monitor

// Fleet trace analytics surface: the harvest plumbing that feeds the
// traceanalytics engine, the synthetic "fleet" series the detector
// watches for critical-path shifts, and the /v1/traceview endpoint.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traceanalytics"
)

// FleetBackend is the synthetic backend name carrying fleet-derived
// series (trace_stage_share) in the store and in alerts from the
// critical-path rules.
const FleetBackend = "fleet"

// TraceAnalytics exposes the trace-assembly engine (the CLI and tests
// query it directly).
func (m *Monitor) TraceAnalytics() *traceanalytics.Engine { return m.analytics }

// HarvestTraces forces one traces scrape of every backend right now,
// bypassing the sweep counter's 1/8 throttle — `powerperfmon trace`
// and tests use it to pull a fresh span harvest on demand.
func (m *Monitor) HarvestTraces(ctx context.Context) {
	var wg sync.WaitGroup
	for _, be := range m.backends {
		wg.Add(1)
		go func(be string) {
			defer wg.Done()
			_ = m.scraper.scrapeTraces(ctx, be, m.scraper.state[be])
		}(be)
	}
	wg.Wait()
}

// IngestSpans feeds spans from a non-scraped process — a coordinator's
// own tracer, whose scheduler.lease spans stitch the backend fragments
// together — into the assembler under the given source name. Returns
// how many spans were new.
func (m *Monitor) IngestSpans(source string, spans []telemetry.SpanData) int {
	return m.analytics.Ingest(source, spans)
}

// pushTraceSeries publishes the assembler's fleet view into the series
// store under the synthetic fleet backend, one gauge per pipeline
// stage, so critical-path shifts run through the stock detector
// exactly like any scraped series.
func (m *Monitor) pushTraceSeries(now time.Time) {
	shares := m.analytics.StageShares(0)
	for _, stage := range traceanalytics.Stages() {
		key := fmt.Sprintf("trace_stage_share{stage=%q}", stage)
		m.store.push(FleetBackend, key, Sample{T: now, V: shares[stage]})
	}
}

// traceviewResponse is the GET /v1/traceview payload: the fleet
// summary plus search results, or one full waterfall with ?trace=.
type traceviewResponse struct {
	Generated time.Time                 `json:"generated"`
	Summary   *traceanalytics.Summary   `json:"summary,omitempty"`
	Traces    []traceanalytics.Digest   `json:"traces,omitempty"`
	Trace     *traceanalytics.Trace     `json:"trace,omitempty"`
	Flame     *traceanalytics.FlameNode `json:"flame,omitempty"`
}

// TraceviewHandler serves GET /v1/traceview:
//
//	(no params)          fleet summary: stage shares, top critical paths, RED table
//	?trace=<hex id>      one assembled trace: full waterfall + critical path
//	?seed=N              traces of studies run at seed N
//	?backend=URL         traces a given backend contributed spans to
//	?op=NAME             traces containing a span named NAME
//	?min_ms=X            traces at least X ms of wall time
//	?limit=N             result cap (default 20)
//	?flame=1             include the fleet-merged flame hierarchy
func (m *Monitor) TraceviewHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		resp := traceviewResponse{Generated: time.Now()}
		if tv := q.Get("trace"); tv != "" {
			id, err := telemetry.ParseID(tv)
			if err != nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, "bad trace id: "+err.Error()), http.StatusBadRequest)
				return
			}
			tr := m.analytics.Trace(telemetry.TraceID(id))
			if tr == nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, "trace not assembled: "+tv), http.StatusNotFound)
				return
			}
			resp.Trace = tr
			writeTraceview(w, &resp)
			return
		}
		query := traceanalytics.Query{
			Seed:    q.Get("seed"),
			Backend: q.Get("backend"),
			Op:      q.Get("op"),
		}
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf(`{"error":%q}`, "bad min_ms: "+err.Error()), http.StatusBadRequest)
				return
			}
			query.MinDur = time.Duration(ms * 1e6)
		}
		if v := q.Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				query.Limit = n
			}
		}
		filtered := query.Seed != "" || query.Backend != "" || query.Op != "" ||
			query.MinDur > 0 || query.Limit > 0
		if !filtered {
			sum := m.analytics.Summary(5)
			resp.Summary = &sum
		}
		for _, tr := range m.analytics.Search(query) {
			resp.Traces = append(resp.Traces, tr.Digest())
		}
		if q.Get("flame") == "1" {
			resp.Flame = m.analytics.Flame()
		}
		writeTraceview(w, &resp)
	})
}

func writeTraceview(w http.ResponseWriter, resp *traceviewResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(resp)
}
