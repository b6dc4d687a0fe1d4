package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// handleMetricsz renders the server counters in the Prometheus text
// exposition format, the one page the fleet monitor scrapes. Families
// are emitted in a fixed order.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}

	// Identity first: one constant-1 gauge whose labels carry the build
	// stamp and the daemon's study seed, the stock Prometheus idiom for
	// joining every other series to the code and dataset that produced
	// it. The seed is a label because a float sample is not exact for
	// every int64.
	bi := telemetry.BuildInfo()
	name := "powerperf_build_info"
	fmt.Fprintf(&b, "# HELP %s Build identity and study seed of this daemon; the value is always 1.\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(&b, "%s{version=%s,commit=%s,modified=\"%t\",go=%s,seed=\"%d\"} 1\n",
		name, telemetry.PromQuote(bi.Version), telemetry.PromQuote(bi.Commit), bi.Modified,
		telemetry.PromQuote(bi.GoVersion), st.Seed)

	gauge("powerperfd_uptime_seconds", "Seconds since the daemon started.", st.UptimeS)

	counter("powerperfd_cache_hits_total", "Measure cells served from a completed cache entry.", st.Cache.Hits)
	counter("powerperfd_cache_misses_total", "Measure cell fills started.", st.Cache.Misses)
	counter("powerperfd_cache_coalesced_total", "Measure cells that waited on another requester's fill (duplicate suppression).", st.Cache.Coalesced)
	gauge("powerperfd_cache_entries", "Resident cache entries.", float64(st.Cache.Entries))

	gauge("powerperfd_queue_depth", "Measurement tasks queued, not yet executing.", float64(st.Queue.Depth))
	gauge("powerperfd_queue_capacity", "Bounded measurement queue capacity.", float64(st.Queue.Capacity))
	gauge("powerperfd_inflight_workers", "Measurement closures currently executing.", float64(st.Queue.Inflight))

	name = "powerperfd_requests_total"
	fmt.Fprintf(&b, "# HELP %s Requests per endpoint family.\n# TYPE %s counter\n", name, name)
	fmt.Fprintf(&b, "%s{endpoint=\"measure\"} %d\n", name, st.Requests.Measure)
	fmt.Fprintf(&b, "%s{endpoint=\"experiments\"} %d\n", name, st.Requests.Experiments)
	fmt.Fprintf(&b, "%s{endpoint=\"dataset\"} %d\n", name, st.Requests.Dataset)

	// The study store block, only when a store is attached.
	if ss := st.Store; ss != nil {
		gauge("powerperfd_store_segments", "Sealed study segments in the store.", float64(ss.Segments))
		gauge("powerperfd_store_rows", "Measurement rows in sealed segments.", float64(ss.Rows))
		gauge("powerperfd_store_bytes", "Bytes in the store's segment log.", float64(ss.Bytes))
		gauge("powerperfd_store_last_seal_timestamp_seconds", "Unix time of the newest seal (0 before the first).", float64(ss.LastSealUnix))
		counter("powerperfd_store_recorded_studies_total", "Studies the ingest appended to the store.", ss.Recorded)
		counter("powerperfd_store_dropped_studies_total", "Completed studies dropped because the ingest queue was full.", ss.Dropped)
		counter("powerperfd_store_write_errors_total", "Store appends and syncs that failed.", ss.WriteErrors)
	}

	// Latency distributions: the cell-fill and per-endpoint HTTP
	// histograms render as Prometheus histograms after the counters.
	s.registry.WritePrometheus(&b)

	// SLO state last: error budgets, burn rates, and alert states per
	// objective, which the fleet monitor federates onto the dashboard.
	// Rendering advances the engine, so scrapes double as its clock.
	if s.sloEng != nil {
		s.sloEng.WriteMetrics(&b, time.Now())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
