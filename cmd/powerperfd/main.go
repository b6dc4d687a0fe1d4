// Command powerperfd is the long-running study service: an HTTP JSON API
// that serves measurements, the paper's tables and figures, and the
// companion dataset from a memoized measurement cache. The determinism
// contract (a measurement is a pure function of benchmark, processor,
// config, and seed) makes the cache exact — identical requests are
// computed once and served from memory thereafter.
//
// Usage:
//
//	powerperfd [-addr :8722] [-seed 42] [-workers N] [-queue 1024]
//	           [-cache-cells 10980] [-read-timeout 30s]
//	           [-write-timeout 15m] [-idle-timeout 2m]
//	           [-trace-buffer 4096] [-pprof] [-log-level info]
//	           [-monitor-backends self,http://host:8722] [-monitor-interval 5s]
//	           [-store-dir /var/lib/powerperf]
//
// Endpoints:
//
//	POST /v1/measure            {"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}
//	GET  /v1/experiments        list artifact ids
//	GET  /v1/experiments/{id}   e.g. table4, figure9, findings
//	GET  /v1/dataset            measurements.csv (?table=aggregates for the other file)
//	GET  /v1/traces             recent request spans, span records (JSON)
//	GET  /healthz               liveness; 503 while draining
//	GET  /metricsz              build, seed, counters, latency histograms, Prometheus text
//	GET  /v1/sloz               SLO budgets and burn-rate alerts (default on; -slo=false)
//	GET  /debug/pprof/*         live profiling (only with -pprof)
//	GET  /v1/alertz             fleet alerts, JSON (only with -monitor-backends)
//	GET  /debug/dashboard       HTML fleet dashboard (only with -monitor-backends)
//	GET  /v1/studies[/...]      persistent study store query API (only with -store-dir)
//
// With -store-dir set, every completed /v1/measure batch is durably
// appended to an on-disk segment log (DESIGN.md §14) and served back
// through /v1/studies: rows, aggregates, CSV export, and the
// longitudinal Pareto-drift replay. The store recovers torn tails on
// open and seals (fsyncs) one segment per study.
//
// Every request logs one structured access line (method, path, status,
// duration, trace_id) and records a server span; requests carrying
// X-Trace-Id/X-Parent-Span headers stitch into the caller's trace.
//
// SIGINT/SIGTERM starts a graceful shutdown: new work is rejected,
// queued and in-flight cells drain, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8722", "listen address")
	seed := flag.Int64("seed", 42, "daemon study seed (experiments, dataset, default measure seed)")
	workers := flag.Int("workers", 0, "measurement workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "bounded measurement queue depth")
	cacheCells := flag.Int("cache-cells", 0, "measurement cache capacity in cells (0 = 4 study grids)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown limit")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max duration to read a full request, header plus body (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 15*time.Minute, "max duration to write a full response; must cover a cold dataset stream (0 = none)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time before a connection closes (0 = none)")
	traceBuffer := flag.Int("trace-buffer", 0, "completed spans retained for /v1/traces (0 = 4096)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ live-profiling handlers")
	sloOn := flag.Bool("slo", true, "track service-level objectives: /v1/sloz, burn-rate alerts, slo_* gauges")
	sloLatency := flag.Duration("slo-latency-threshold", 2*time.Second, "measure-latency SLO good/bad boundary")
	tailSample := flag.Float64("trace-tail-sample", 0, "tail-based trace sampling keep rate in (0,1]: slow and errored traces always kept, others probabilistically (0 = keep everything)")
	monBackends := flag.String("monitor-backends", "", "comma-separated backend URLs to monitor; 'self' means this daemon (empty = monitoring off)")
	monInterval := flag.Duration("monitor-interval", 5*time.Second, "monitor scrape-and-evaluate interval")
	storeDir := flag.String("store-dir", "", "directory for the persistent study store (empty = store disabled)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger := telemetry.Logger("powerperfd")
	if err := setLogLevel(*logLevel); err != nil {
		logger.Error("bad -log-level", slog.Any("error", err))
		os.Exit(2)
	}
	opts := service.Options{
		Seed:          *seed,
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheCapacity: *cacheCells,
		TraceBuffer:   *traceBuffer,
	}
	if err := validateFlags(opts, *tailSample, *monBackends, *monInterval); err != nil {
		logger.Error("bad flag", slog.Any("error", err))
		os.Exit(2)
	}

	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			logger.Error("bad -store-dir", slog.Any("error", err))
			os.Exit(2)
		}
		opts.Store = st
		sst := st.Stats()
		logger.Info("study store open", slog.String("dir", *storeDir),
			slog.Int64("segments", sst.Segments), slog.Int64("rows", sst.Rows),
			slog.Int64("truncated_tail_bytes", sst.TruncatedTail))
	}

	if *sloOn {
		cfg := service.DefaultSLOConfig()
		cfg.Objectives[0].LatencyThreshold = *sloLatency
		opts.SLO = cfg
	}
	if *tailSample > 0 {
		// Slow traces (by the latency SLO's own yardstick) and errored
		// traces always survive; the rate only thins the healthy bulk.
		opts.TailSampling = &telemetry.TailPolicy{
			SlowSpan:   *sloLatency,
			KeepErrors: true,
			SampleRate: *tailSample,
		}
	}
	srv := service.NewServer(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *monBackends != "" {
		// Fleet monitoring: scrape the named backends (or this daemon
		// itself via 'self') and serve /v1/alertz + /debug/dashboard.
		targets := monitorTargets(*monBackends, *addr)
		mon := monitor.New(targets, monitor.Options{Interval: *monInterval})
		mon.Start(ctx)
		srv.AttachMonitor(mon)
		logger.Info("monitoring", slog.Any("backends", targets),
			slog.Duration("interval", *monInterval))
	}

	handler := srv.Handler()
	if *pprofOn {
		// The profiling mux wraps the API: CPU, heap, mutex, and block
		// profiles of the live daemon via `go tool pprof`. Off by
		// default — the endpoints expose internals and cost samples.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/debug/pprof/", service.PprofHandler())
		handler = mux
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}

	// Slow-client protection: bound every phase of a connection's life,
	// not just the header read, so a stalled peer cannot pin a
	// goroutine and connection forever. The write timeout is generous
	// because a cold /v1/dataset response measures the full grid while
	// streaming.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", slog.String("addr", *addr), slog.Int64("seed", *seed))

	select {
	case err := <-errCh:
		logger.Error("listener failed", slog.Any("error", err))
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutdown: draining", slog.Duration("limit", *drainTimeout))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Flip to draining first so /healthz goes unhealthy and new API work
	// is rejected while in-flight handlers finish under Shutdown.
	done := make(chan struct{})
	go func() { srv.Drain(); close(done) }()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", slog.Any("error", err))
	}
	select {
	case <-done:
		logger.Info("shutdown: drained cleanly")
	case <-shutdownCtx.Done():
		logger.Warn("shutdown: drain limit hit, exiting with work queued")
	}
	if opts.Store != nil {
		// Drain already flushed and fsynced the ingest; this releases
		// the log file handle.
		if err := opts.Store.Close(); err != nil {
			logger.Warn("study store close", slog.Any("error", err))
		}
	}
}

// validateFlags rejects flag values the daemon would otherwise misread
// or silently ignore, so a bad value is a clean exit rather than a
// daemon running some other configuration.
func validateFlags(opts service.Options, tailSample float64, monBackends string, monInterval time.Duration) error {
	// service.Options maps each of these to its default, so a value out
	// of range would run a daemon sized other than asked.
	if opts.Workers < 0 {
		return fmt.Errorf("-workers %d: want >= 0 (0 = GOMAXPROCS)", opts.Workers)
	}
	if opts.QueueDepth <= 0 {
		return fmt.Errorf("-queue %d: want > 0", opts.QueueDepth)
	}
	if opts.CacheCapacity < 0 {
		return fmt.Errorf("-cache-cells %d: want >= 0 (0 = 4 study grids)", opts.CacheCapacity)
	}
	if opts.TraceBuffer < 0 {
		return fmt.Errorf("-trace-buffer %d: want >= 0 (0 = 4096)", opts.TraceBuffer)
	}
	// Written as the valid range so NaN, which fails every comparison,
	// is rejected too.
	if !(tailSample >= 0 && tailSample <= 1) {
		return fmt.Errorf("-trace-tail-sample %v: want a keep rate in [0,1] (0 = keep everything)", tailSample)
	}
	if monBackends != "" && monInterval <= 0 {
		return fmt.Errorf("-monitor-interval %v: want > 0 with -monitor-backends", monInterval)
	}
	return nil
}

// monitorTargets expands the -monitor-backends list, resolving the
// 'self' shorthand to this daemon's own address so a single flag turns
// on self-monitoring.
func monitorTargets(list, addr string) []string {
	self := "http://" + addr
	if strings.HasPrefix(addr, ":") {
		self = "http://127.0.0.1" + addr
	}
	var out []string
	for _, t := range strings.Split(list, ",") {
		t = strings.TrimSpace(t)
		switch t {
		case "":
		case "self":
			out = append(out, self)
		default:
			out = append(out, t)
		}
	}
	return out
}

func setLogLevel(name string) error {
	var l slog.Level
	if err := l.UnmarshalText([]byte(name)); err != nil {
		return err
	}
	telemetry.SetLogLevel(l)
	return nil
}
