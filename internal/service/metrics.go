package service

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// handleMetricsz serves the one page the fleet monitor scrapes: the
// server's counters and gauges, its latency histograms and the SLO
// engine's gauges, as families in a fixed order that
// telemetry.RenderPrometheus writes in one call.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	// Identity first: one constant-1 gauge whose labels carry the build
	// stamp and the daemon's study seed, the stock Prometheus idiom for
	// joining every other series to the code and dataset that produced
	// it. The seed is a label because a float sample is not exact for
	// every int64.
	bi := telemetry.BuildInfo()
	fams := []telemetry.MetricFamily{
		{Name: "powerperf_build_info", Type: "gauge",
			Help: "Build identity and study seed of this daemon; the value is always 1.",
			Samples: []telemetry.MetricPoint{{Name: "powerperf_build_info", Value: 1, Labels: []telemetry.Label{
				{Key: "version", Value: bi.Version}, {Key: "commit", Value: bi.Commit},
				{Key: "modified", Value: strconv.FormatBool(bi.Modified)}, {Key: "go", Value: bi.GoVersion},
				{Key: "seed", Value: strconv.FormatInt(st.Seed, 10)}}}}},

		scalar("gauge", "powerperfd_uptime_seconds", "Seconds since the daemon started.", st.UptimeS),

		scalar("counter", "powerperfd_cache_hits_total", "Measure cells served from a completed cache entry.", float64(st.Cache.Hits)),
		scalar("counter", "powerperfd_cache_misses_total", "Measure cell fills started.", float64(st.Cache.Misses)),
		scalar("counter", "powerperfd_cache_coalesced_total", "Measure cells that waited on another requester's fill (duplicate suppression).", float64(st.Cache.Coalesced)),
		scalar("gauge", "powerperfd_cache_entries", "Resident cache entries.", float64(st.Cache.Entries)),

		scalar("gauge", "powerperfd_queue_depth", "Measurement tasks queued, not yet executing.", float64(st.Queue.Depth)),
		scalar("gauge", "powerperfd_queue_capacity", "Bounded measurement queue capacity.", float64(st.Queue.Capacity)),
		scalar("gauge", "powerperfd_inflight_workers", "Measurement closures currently executing.", float64(st.Queue.Inflight)),

		{Name: "powerperfd_requests_total", Type: "counter", Help: "Requests per endpoint family.",
			Samples: []telemetry.MetricPoint{
				endpointSample("measure", st.Requests.Measure),
				endpointSample("experiments", st.Requests.Experiments),
				endpointSample("dataset", st.Requests.Dataset),
			}},
	}

	// The study store block, only when a store is attached.
	if ss := st.Store; ss != nil {
		fams = append(fams,
			scalar("gauge", "powerperfd_store_segments", "Sealed study segments in the store.", float64(ss.Segments)),
			scalar("gauge", "powerperfd_store_rows", "Measurement rows in sealed segments.", float64(ss.Rows)),
			scalar("gauge", "powerperfd_store_bytes", "Bytes in the store's segment log.", float64(ss.Bytes)),
			scalar("gauge", "powerperfd_store_last_seal_timestamp_seconds", "Unix time of the newest seal (0 before the first).", float64(ss.LastSealUnix)),
			scalar("counter", "powerperfd_store_recorded_studies_total", "Studies the ingest appended to the store.", float64(ss.Recorded)),
			scalar("counter", "powerperfd_store_dropped_studies_total", "Completed studies dropped because the ingest queue was full.", float64(ss.Dropped)),
			scalar("counter", "powerperfd_store_write_errors_total", "Store appends and syncs that failed.", float64(ss.WriteErrors)),
		)
	}

	// Latency distributions: the cell-fill and per-endpoint HTTP
	// histograms render as Prometheus histograms after the counters.
	fams = append(fams, s.registry.Families()...)

	// SLO state last: error budgets, burn rates, and alert states per
	// objective, which the fleet monitor federates onto the dashboard.
	// Reading advances the engine, so scrapes double as its clock.
	if s.sloEng != nil {
		fams = append(fams, s.sloEng.Families(time.Now())...)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	telemetry.RenderPrometheus(w, fams)
}

// scalar is a family of one unlabelled sample.
func scalar(typ, name, help string, v float64) telemetry.MetricFamily {
	return telemetry.MetricFamily{Name: name, Help: help, Type: typ,
		Samples: []telemetry.MetricPoint{{Name: name, Value: v}}}
}

// endpointSample is one endpoint family's powerperfd_requests_total
// sample.
func endpointSample(endpoint string, n int64) telemetry.MetricPoint {
	return telemetry.MetricPoint{Name: "powerperfd_requests_total", Value: float64(n),
		Labels: []telemetry.Label{{Key: "endpoint", Value: endpoint}}}
}
