package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/service"
)

// lease16 is a 16-cell full-detail lease of the stock grid at seed 42,
// the shape the scheduler sends.
func lease16() *service.MeasureRequest {
	seed := int64(42)
	req := &service.MeasureRequest{Seed: &seed, Detail: service.DetailFull, Lane: service.LaneBulk}
	for _, j := range harness.GridJobs(nil, nil)[:16] {
		cfg := service.ConfigToJSON(j.CP.Config)
		req.Cells = append(req.Cells, service.CellRequest{Benchmark: j.Bench.Name, Processor: j.CP.Proc.Name, Config: &cfg})
	}
	return req
}

// dialCounting is a client whose transport counts the connections it
// dials.
func dialCounting(dials *atomic.Int64) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
}

// TestClientKeepsConnectionAcrossLeases: sequential leases to one
// backend share one connection. The client returns at the done frame
// without reading on, so the end of the body must arrive with that
// frame for the transport to see it and keep the connection — a
// computed lease's done frame leaves with the chunked terminator, and
// a resident lease is one Content-Length reply.
func TestClientKeepsConnectionAcrossLeases(t *testing.T) {
	srv := service.NewServer(service.Options{Seed: 42})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var dials atomic.Int64
	hc := dialCounting(&dials)
	t.Cleanup(hc.CloseIdleConnections)
	c := NewClient(ts.URL, hc, 0)
	req := lease16()
	for i := 0; i < 200; i++ {
		cells := 0
		if err := c.MeasureStream(context.Background(), req, func(*service.StreamCell) error {
			cells++
			return nil
		}); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if cells != len(req.Cells) {
			t.Fatalf("lease %d delivered %d cells, want %d", i, cells, len(req.Cells))
		}
	}
	if misses := srv.Stats().Cache.Misses; misses != int64(len(req.Cells)) {
		t.Fatalf("%d cache misses, want the first lease's %d", misses, len(req.Cells))
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("200 sequential leases dialed %d connections, want 1", n)
	}
}

// BenchmarkLeaseRoundTrip is one resident 16-cell full-detail lease
// through Client.MeasureStream against an in-process backend on a
// loopback listener: the request frame, the backend's cache lookups
// and reply, and the client's decode, with no cell computed.
//
//	go test -run '^$' -bench BenchmarkLeaseRoundTrip -benchtime 2000x -benchmem ./internal/cluster
func BenchmarkLeaseRoundTrip(b *testing.B) {
	ts := httptest.NewServer(service.NewServer(service.Options{Seed: 42}).Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client(), 0)
	req := lease16()
	cells := 0
	onCell := func(*service.StreamCell) error {
		cells++
		return nil
	}
	if err := c.MeasureStream(context.Background(), req, onCell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MeasureStream(context.Background(), req, onCell); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cells != (b.N+1)*len(req.Cells) {
		b.Fatalf("%d cells delivered over %d leases", cells, b.N+1)
	}
}
