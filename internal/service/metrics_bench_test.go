package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// pageWriter is a ResponseWriter that keeps only the body's length, so
// the benchmark times the handler rather than a recorder's buffer.
type pageWriter struct {
	h http.Header
	n int
}

func (w *pageWriter) Header() http.Header         { return w.h }
func (w *pageWriter) WriteHeader(int)             {}
func (w *pageWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkMetricsz times the /metricsz handler on a server deployed as
// powerperfd deploys it (study store, SLO engine, 5% tail sampling),
// after one sealed study and requests to five endpoint families have
// populated its latency histograms and their exemplars. It reports the
// page size as page_bytes next to ns/op and allocs/op.
func BenchmarkMetricsz(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(Options{Seed: 42, Workers: 2, Store: st, SLO: DefaultSLOConfig(),
		TailSampling: &telemetry.TailPolicy{SlowSpan: 2 * time.Second, KeepErrors: true, SampleRate: 0.05}})
	defer srv.Drain()
	h := srv.Handler()
	cells := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"},{"benchmark":"jess","processor":"i5 (32)"}]}`
	for i := 0; i < 20; i++ {
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/measure", strings.NewReader(cells)),
			httptest.NewRequest(http.MethodGet, "/v1/experiments", nil),
			httptest.NewRequest(http.MethodGet, "/v1/studies", nil),
			httptest.NewRequest(http.MethodGet, "/healthz", nil),
			httptest.NewRequest(http.MethodGet, "/metricsz", nil),
		} {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Store.Segments < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatal("study never sealed into the store")
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	w := &pageWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.n = 0
		srv.handleMetricsz(w, req)
	}
	b.ReportMetric(float64(w.n), "page_bytes")
}
