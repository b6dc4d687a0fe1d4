// Package cluster is the scale-out layer over powerperfd: a pull-based
// work-stealing Scheduler that runs study workloads against N backends.
// Every cell has a rendezvous-hashed home backend whose pullers lease it
// first; results stream back cell by cell, each puller retries with
// jittered exponential backoff behind its backend's circuit breaker, and
// whatever a dead or stalled backend left undelivered is re-leased to
// its peers.
//
// The whole layer leans on the repository's determinism contract: a
// measurement is a pure function of the (benchmark, processor, config,
// seed) tuple, bit-identical wherever it is computed. That makes every
// resilience tactic trivially correct — a retried, stolen, or
// re-dispatched cell returns exactly the bytes the first attempt would
// have, so the scheduler can duplicate work freely and keep whichever
// answer arrives first, and backend caches deduplicate whatever the
// duplicated work recomputes.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Version identifies the scheduler on the wire; backends see it in
// the User-Agent header of every request.
const Version = "0.4.0"

// userAgent is the User-Agent header value sent with every request; the
// build token lets backend access logs attribute traffic to an exact
// scheduler binary.
var userAgent = "powerperf-cluster/" + Version + " " + telemetry.BuildInfo().UserAgentToken()

// backendLatency holds one measure-exchange latency histogram per
// backend URL, shared by every client of that URL in the process.
var backendLatency = telemetry.NewRegistry()

// Client is a typed HTTP client for one powerperfd backend.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration // per-request deadline; <= 0 means none

	// lat is this backend's measure-exchange latency distribution; it
	// surfaces in the scheduler's Stats.
	lat *telemetry.Histogram
}

// NewClient builds a client for the backend at base (e.g.
// "http://127.0.0.1:8722"). A nil hc selects http.DefaultClient;
// timeout is the per-request deadline applied on top of the caller's
// context.
func NewClient(base string, hc *http.Client, timeout time.Duration) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{
		base:    base,
		hc:      hc,
		timeout: timeout,
		lat: backendLatency.LabeledHistogram("powerperf_cluster_backend_request_seconds",
			"Wall time of measure exchanges per backend.", "backend", base),
	}
}

// Base returns the backend base URL.
func (c *Client) Base() string { return c.base }

// backendError is a failed HTTP exchange with a backend. Status is 0
// for transport-level failures (connection refused, timeout).
type backendError struct {
	Backend string
	Status  int
	Msg     string
}

func (e *backendError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("cluster: %s: %s", e.Backend, e.Msg)
	}
	return fmt.Sprintf("cluster: %s: HTTP %d: %s", e.Backend, e.Status, e.Msg)
}

// permanent reports whether err can never succeed on another backend or
// attempt: client-side mistakes (4xx validation errors) are permanent,
// transport failures and 5xx/503 responses are not.
func permanent(err error) bool {
	var be *backendError
	if errors.As(err, &be) {
		return be.Status >= 400 && be.Status < 500 &&
			be.Status != http.StatusRequestTimeout && be.Status != http.StatusTooManyRequests
	}
	return false
}

// send performs one exchange with the backend: it stamps the User-Agent
// and the caller's trace headers, reports a transport failure as a
// backend error (or the caller's cancellation as such), and turns a
// non-200 answer into a backendError carrying the backend's message. On
// success the caller owns the response body.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", userAgent)
	// Propagate the caller's trace so the backend's spans stitch into
	// the scheduler's view (a no-op when ctx carries no span).
	telemetry.InjectHeaders(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		// Surface the caller's cancellation as such; everything else is
		// a transport failure attributable to the backend.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, &backendError{Backend: c.base, Msg: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg := resp.Status
		var eb struct {
			Error string `json:"error"`
		}
		if b, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
			if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
				msg = eb.Error
			}
		}
		return nil, &backendError{Backend: c.base, Status: resp.StatusCode, Msg: msg}
	}
	return resp, nil
}

// Healthz probes the backend's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	resp, err := c.send(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// Resolver memoizes one workload and fleet instance for reconstructing
// wire cells: workload.ByName and proc.ByName hand out fresh
// mutation-isolated copies on every call, which priced a full fleet
// construction into every reconstructed cell. The scheduler never
// mutates the resolved values, so one resolver serves every cell of a
// study. Read-only after construction; safe for concurrent use.
type Resolver struct {
	benches map[string]*workload.Benchmark
	procs   map[string]*proc.Processor
}

// NewResolver builds a resolver over the full workload and fleet.
func NewResolver() *Resolver {
	benches := workload.All()
	fleet := proc.Fleet()
	r := &Resolver{
		benches: make(map[string]*workload.Benchmark, len(benches)),
		procs:   make(map[string]*proc.Processor, len(fleet)),
	}
	for _, b := range benches {
		r.benches[b.Name] = b
	}
	for _, p := range fleet {
		r.procs[p.Name] = p
	}
	return r
}

// MeasurementFromCell reconstructs the harness Measurement from a
// full-detail wire cell. Benchmark and processor resolve to the same
// values a local harness would use, and the measure stream carries
// every float64 as its IEEE-754 bits, so the reconstruction is
// bit-identical to a local measurement.
func (rv *Resolver) MeasurementFromCell(cr *service.CellResult) (*harness.Measurement, error) {
	if cr.Full == nil {
		return nil, fmt.Errorf("cluster: cell %s/%s lacks full detail", cr.Benchmark, cr.Processor)
	}
	b, ok := rv.benches[cr.Benchmark]
	if !ok {
		return nil, fmt.Errorf("cluster: reconstruct cell: workload: unknown benchmark %q", cr.Benchmark)
	}
	p, ok := rv.procs[cr.Processor]
	if !ok {
		return nil, fmt.Errorf("cluster: reconstruct cell: proc: unknown processor %q", cr.Processor)
	}
	m := &harness.Measurement{
		Bench: b,
		CP: proc.ConfiguredProcessor{Proc: p, Config: proc.Config{
			Cores:    cr.Config.Cores,
			SMTWays:  cr.Config.SMTWays,
			ClockGHz: cr.Config.ClockGHz,
			Turbo:    cr.Config.Turbo,
		}},
		Runs:     make([]harness.RunSample, len(cr.Full.RunSamples)),
		Seconds:  cr.Seconds,
		Watts:    cr.Watts,
		EnergyJ:  cr.EnergyJ,
		Counters: cr.Full.Counters.Counters(),
		TimeCI:   cr.Full.TimeCI.CI(),
		PowerCI:  cr.Full.PowerCI.CI(),
	}
	for i, r := range cr.Full.RunSamples {
		m.Runs[i] = harness.RunSample{Seconds: r.Seconds, Watts: r.Watts, Counters: r.Counters.Counters()}
	}
	return m, nil
}
