package service

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// httpHist is the server's HTTP latency distribution for one endpoint
// family, the server-side view of what the cluster client measures per
// backend.
func (s *Server) httpHist(endpoint string) *telemetry.Histogram {
	return s.registry.LabeledHistogram("powerperfd_http_request_seconds",
		"Wall time of HTTP requests by endpoint family.", "endpoint", endpoint)
}

// endpointFamily buckets request paths into a bounded label set, so
// arbitrary client paths cannot mint unbounded metric series.
func endpointFamily(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/measure"):
		return "measure"
	case strings.HasPrefix(path, "/v1/experiments"):
		return "experiments"
	case strings.HasPrefix(path, "/v1/studies"):
		return "studies"
	case strings.HasPrefix(path, "/v1/dataset"):
		return "dataset"
	case strings.HasPrefix(path, "/v1/traceview"):
		return "traceview"
	case strings.HasPrefix(path, "/v1/traces"):
		return "traces"
	case path == "/v1/sloz":
		return "sloz"
	case path == "/v1/alertz":
		return "alertz"
	case path == "/healthz", path == "/metricsz":
		return strings.TrimPrefix(path, "/")
	default:
		return "other"
	}
}

// statusWriter records the committed status code while preserving the
// Flusher contract the dataset streamer depends on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController passthrough.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// monitoringPlane reports whether an endpoint family is scrape
// infrastructure rather than workload: liveness, metrics, and the
// trace export itself. These get no spans — a fleet monitor polling
// every few seconds would otherwise evict real workload spans from the
// bounded ring and bloat every /v1/traces export with records of
// reading it (the observer effect, in the literal sense). They keep the
// latency histogram, and their access lines log at Debug so a scraped
// daemon's log stays about its workload.
func monitoringPlane(family string) bool {
	switch family {
	case "healthz", "metricsz", "traces", "traceview", "sloz", "alertz":
		return true
	}
	return false
}

// observe wraps the API mux with the daemon's request telemetry: a
// server span per request (adopting X-Trace-Id/X-Parent-Span so a
// cluster coordinator's trace stitches through), the per-endpoint
// latency histogram, and one structured access line per request.
// Monitoring-plane endpoints are exempt from spans (see
// monitoringPlane).
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		family := endpointFamily(r.URL.Path)
		plane := monitoringPlane(family)

		var ctx = r.Context()
		var span *telemetry.Span
		if !plane {
			if trace, parent, ok := telemetry.ExtractHeaders(r.Header); ok {
				ctx, span = s.tracer.StartRemote(ctx, trace, parent, "http."+family)
			} else {
				ctx, span = s.tracer.StartSpan(ctx, "http."+family)
			}
			span.Annotate(
				telemetry.String("method", r.Method),
				telemetry.String("path", r.URL.Path),
			)
			w.Header().Set(telemetry.HeaderTraceID, span.Trace().String())
		}

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)

		var trace telemetry.TraceID
		if span != nil {
			span.Annotate(telemetry.String("status", strconv.Itoa(sw.status)))
			if sw.status >= 500 {
				// The error attribute is what tail sampling keys on: a
				// failed request's whole trace survives the sampler.
				span.Annotate(telemetry.String("error", http.StatusText(sw.status)))
			}
			trace = span.Trace()
			span.End()
		}
		if trace != 0 {
			// Exemplar-linked observation: the histogram bucket this
			// request lands in remembers the trace, so a burn-rate page
			// reached from /metricsz links straight to /v1/traces.
			s.httpHist(family).ObserveWithExemplar(dur, trace)
		} else {
			s.httpHist(family).Observe(dur)
		}
		if s.sloEng != nil && !plane {
			s.sloEng.Observe(SLOAvailability, sw.status < 500)
			if sw.status >= 500 {
				s.sloEng.RecordBreach(SLOAvailability, trace, dur.Seconds())
			}
			if family == "measure" {
				s.sloEng.ObserveLatency(SLOLatency, dur, trace)
			}
		}
		level := slog.LevelInfo
		if plane {
			level = slog.LevelDebug
		}
		s.logger.Log(ctx, level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", dur),
		)
	})
}

// handleTraces serves the tracer's retained spans as span records: a
// JSON array of telemetry.SpanData with absolute timestamps and stable
// 64-bit ids, the one shape the fleet trace-analytics harvester can
// stitch across backends. ?trace=<16-hex-digit id> narrows to one
// trace — how an SLO page's exemplar link resolves.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var trace telemetry.TraceID
	if tv := r.URL.Query().Get("trace"); tv != "" {
		id, err := telemetry.ParseID(tv)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		trace = telemetry.TraceID(id)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.tracer.WriteSpans(w, trace)
}
