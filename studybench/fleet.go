package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Deployed-configuration settings. powerperfd's -trace-tail-sample is
// off by default; the deployed configuration samples at the rate the
// repository's SLO quickstart (README.md) and BenchmarkServedStudySLO
// use. The monitor sweeps often enough that its every-8th-sweep trace
// harvest lands inside every study.
const (
	sloLatency      = 2 * time.Second // powerperfd's -slo-latency-threshold default
	tailSampleRate  = 0.05
	monitorInterval = 50 * time.Millisecond
)

// backendConfig selects how one in-process backend is built.
type backendConfig struct {
	// storeDir, when set, selects the deployed configuration: a study
	// store in this directory, tail sampling, and a monitor sweeping
	// the backend itself.
	storeDir string
	// wrap, when set, wraps the backend's handler (traced runs only).
	wrap func(http.Handler) http.Handler
}

// backend is one service.Server behind a real loopback listener, built
// the way cmd/powerperfd builds it.
type backend struct {
	url     string
	srv     *service.Server
	hs      *http.Server
	served  chan struct{}
	store   *store.Store
	mon     *monitor.Monitor
	stopMon context.CancelFunc
	conns   connStates // deployed configuration only
}

// connStates counts a backend's connections with a request in progress,
// through http.Server.ConnState, so the deployed read-back can tell when
// every handler has returned.
type connStates struct {
	mu    sync.Mutex
	state map[net.Conn]http.ConnState
	busy  int
}

func (c *connStates) track(conn net.Conn, s http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil {
		c.state = map[net.Conn]http.ConnState{}
	}
	if c.state[conn] == http.StateActive {
		c.busy--
	}
	if s == http.StateActive {
		c.busy++
	}
	if s == http.StateClosed || s == http.StateHijacked {
		delete(c.state, conn)
	} else {
		c.state[conn] = s
	}
}

// active reports how many connections have a request in progress.
func (c *connStates) active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy
}

func startBackend(cfg backendConfig) (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b := &backend{url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	slo := service.DefaultSLOConfig()
	slo.Objectives[0].LatencyThreshold = sloLatency
	opts := service.Options{Seed: 42, SLO: slo}
	if cfg.storeDir != "" {
		if b.store, err = store.Open(cfg.storeDir); err != nil {
			ln.Close()
			return nil, fmt.Errorf("open store: %w", err)
		}
		opts.Store = b.store
		opts.TailSampling = &telemetry.TailPolicy{SlowSpan: sloLatency, KeepErrors: true, SampleRate: tailSampleRate}
	}
	b.srv = service.NewServer(opts)
	if cfg.storeDir != "" {
		b.mon = monitor.New([]string{b.url}, monitor.Options{Interval: monitorInterval, Seed: 7})
		b.srv.AttachMonitor(b.mon)
		ctx, cancel := context.WithCancel(context.Background())
		b.stopMon = cancel
		b.mon.Start(ctx)
	}
	h := b.srv.Handler()
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	b.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if cfg.storeDir != "" {
		b.hs.ConnState = b.conns.track
	}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return b, nil
}

// close stops the monitor, drains the server (which seals the store's
// ingest), closes the listener and every connection, and closes the
// store.
func (b *backend) close() error {
	if b.stopMon != nil {
		b.stopMon()
	}
	b.srv.Drain()
	err := b.hs.Close()
	<-b.served
	if b.store != nil {
		err = errors.Join(err, b.store.Close())
	}
	return err
}

// fleet is a set of backends and the scheduler that drives them.
type fleet struct {
	backends []*backend
	sched    *cluster.Scheduler
	tr       *http.Transport
}

// startFleet starts n backends and a scheduler over them at the study
// seed. The scheduler gets the same transport it would build for itself
// (its own default), so its idle connections can be closed at teardown;
// rt, when set, wraps that transport (traced runs only).
func startFleet(n int, seed int64, cfg backendConfig, rt func(http.RoundTripper) http.RoundTripper) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		b, err := startBackend(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
	}
	urls := make([]string, n)
	for i, b := range f.backends {
		urls[i] = b.url
	}
	const pullersPerBackend = 2 // cluster.SchedulerOptions default
	f.tr = http.DefaultTransport.(*http.Transport).Clone()
	f.tr.MaxIdleConnsPerHost = pullersPerBackend + 1
	var transport http.RoundTripper = f.tr
	if rt != nil {
		transport = rt(f.tr)
	}
	sched, err := cluster.NewScheduler(urls, cluster.SchedulerOptions{
		Seed:       &seed,
		HTTPClient: &http.Client{Transport: transport},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.sched = sched
	return f, nil
}

func (f *fleet) close() error {
	if f.tr != nil {
		f.tr.CloseIdleConnections()
	}
	var err error
	for _, b := range f.backends {
		err = errors.Join(err, b.close())
	}
	return err
}

// schedulerOn is a scheduler at seed over a single backend of the
// fleet, sharing the fleet's transport.
func (f *fleet) schedulerOn(be *backend, seed int64) (*cluster.Scheduler, error) {
	return cluster.NewScheduler([]string{be.url}, cluster.SchedulerOptions{
		Seed:       &seed,
		HTTPClient: &http.Client{Transport: f.tr},
	})
}

// studyOn runs one untimed study on a single backend of the fleet.
func (f *fleet) studyOn(ctx context.Context, be *backend, seed int64, streams int, out *csvPair) error {
	sched, err := f.schedulerOn(be, seed)
	if err != nil {
		return err
	}
	_, err = runStudy(ctx, sched, streams, out, nil)
	return err
}

// fillOn caches the cells at seed on a single backend of the fleet, in
// one batch.
func (f *fleet) fillOn(ctx context.Context, be *backend, seed int64, jobs []harness.Job, streams int) error {
	sched, err := f.schedulerOn(be, seed)
	if err != nil {
		return err
	}
	_, err = sched.MeasureBatch(ctx, jobs, streams)
	return err
}

// cacheTotals sums the cache counters over the fleet.
func (f *fleet) cacheTotals() (hits, misses int64) {
	for _, b := range f.backends {
		cs := b.srv.Stats().Cache
		hits += cs.Hits
		misses += cs.Misses
	}
	return hits, misses
}
