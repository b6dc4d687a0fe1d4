// Command fullstudy regenerates the study's complete dataset — every
// benchmark on every one of the 45 processor configurations — and writes
// it as CSV, the analog of the paper's companion dataset in the ACM
// Digital Library ("We make all our data publicly available to encourage
// others to use it and perform further analysis").
//
// Usage:
//
//	fullstudy [-seed N] [-out DIR] [-backends URL,URL,...] [-lease-expiry D]
//	          [-batch-size N] [-trace-out trace.json]
//
// With -backends the study runs remotely against a fleet of powerperfd
// instances through the work-stealing scheduler: every cell has a
// rendezvous-hashed home backend (so a backend's cache keeps its slice
// of the grid across runs), cells are sliced into leases that backends
// pull as fast as they finish — their own home's first — results stream
// back cell by cell as binary frames, and a lease that stalls or fails —
// straggler or death — is stolen or re-leased by another backend with
// the first result per cell winning. The CSVs are byte-identical to a
// local run, because every cell is a pure function of its identity no
// matter which backend computes it.
//
// With -trace-out the run records spans of every batch, cell, and (with
// -backends) lease, steal, and re-dispatch, and writes them as Chrome
// trace-event JSON — load the file in chrome://tracing or Perfetto for
// a flame view of where the study spent its time. Tracing never changes
// the dataset's bytes.
//
// Writes:
//
//	DIR/measurements.csv  per (configuration, benchmark) raw results
//	DIR/aggregates.csv    per configuration group-weighted aggregates
//	DIR/MANIFEST.txt      provenance: seed, configuration count, columns
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	powerperf "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

var logger = telemetry.Logger("fullstudy")

func fatal(msg string, err error) {
	logger.Error(msg, slog.Any("error", err))
	os.Exit(1)
}

func main() {
	seed := flag.Int64("seed", 42, "study seed")
	out := flag.String("out", "dataset", "output directory")
	backends := flag.String("backends", "", "comma-separated powerperfd base URLs; when set, measure remotely")
	leaseExpiry := flag.Duration("lease-expiry", 2*time.Second, "steal a lease after it delivers no cell for this long (with -backends)")
	batchSize := flag.Int("batch-size", 0, "cells per scheduling block (local) or per lease (with -backends); 0 = automatic. Tune with `powerperf tune`")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run's spans to this file")
	traceBuffer := flag.Int("trace-buffer", 65536, "completed spans retained for -trace-out")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if err := validateFlags(*batchSize, *traceOut, *traceBuffer, *backends, *leaseExpiry); err != nil {
		fatal("flags", err)
	}

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal("profiling", err)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fatal("profiling", err)
		}
	}()

	// Interrupt aborts the grid at measurement-cell granularity.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(*traceBuffer)
	}

	start := time.Now()
	measurements, aggregates, err := streamers(ctx, *seed, *backends, *leaseExpiry, *batchSize, tracer)
	if err != nil {
		fatal("setup", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("output directory", err)
	}

	space := powerperf.ConfigSpace()
	logger.Info("measuring", slog.Int("configurations", len(space)), slog.Int("benchmarks", 61))
	if err := writeCSV(ctx, filepath.Join(*out, "measurements.csv"), measurements); err != nil {
		fatal("measurements.csv", err)
	}
	if err := writeCSV(ctx, filepath.Join(*out, "aggregates.csv"), aggregates); err != nil {
		fatal("aggregates.csv", err)
	}
	manifest := fmt.Sprintf(
		"powerperf full study dataset\nseed: %d\nconfigurations: %d\nbenchmarks: %d\nrows: %d measurements, %d aggregates\ngenerated in: %s\n",
		*seed, len(space), 61, len(space)*61, len(space)*5, time.Since(start).Round(time.Millisecond))
	if err := os.WriteFile(filepath.Join(*out, "MANIFEST.txt"), []byte(manifest), 0o644); err != nil {
		fatal("MANIFEST.txt", err)
	}
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fatal("trace export", err)
		}
		logger.Info("wrote trace", slog.String("path", *traceOut),
			slog.Int("spans", len(tracer.Snapshot())))
	}
	logger.Info("wrote dataset", slog.String("dir", *out),
		slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)))
}

// validateFlags rejects flag values the run would otherwise silently
// replace with a default, so a typo'd flag fails before any work starts
// instead of changing the schedule or the trace.
func validateFlags(batchSize int, traceOut string, traceBuffer int, backends string, leaseExpiry time.Duration) error {
	// A negative batch size would fall back to the automatic block
	// (local) or the 16-cell default lease (remote).
	if batchSize < 0 {
		return fmt.Errorf("-batch-size must be >= 0 (0 = automatic), got %d", batchSize)
	}
	// The tracer would retain its 4,096-span default, not the flag's.
	if traceOut != "" && traceBuffer <= 0 {
		return fmt.Errorf("-trace-buffer must be > 0 with -trace-out, got %d", traceBuffer)
	}
	// The scheduler would steal after its 2s default.
	if backends != "" && leaseExpiry <= 0 {
		return fmt.Errorf("-lease-expiry must be > 0 with -backends, got %v", leaseExpiry)
	}
	return nil
}

type streamFunc = func(ctx context.Context, w io.Writer) error

// streamers builds the two CSV writers, local (in-process harness) or
// remote (the scheduler over powerperfd backends). Both paths produce
// byte-identical files at the same seed, traced or not, at any batch
// or lease size — scheduling is pure plumbing under the determinism
// contract.
func streamers(ctx context.Context, seed int64, backends string, leaseExpiry time.Duration, batchSize int, tracer *telemetry.Tracer) (measurements, aggregates streamFunc, err error) {
	if backends == "" {
		study, err := powerperf.NewStudy(seed)
		if err != nil {
			return nil, nil, err
		}
		study.SetTracer(tracer)
		if batchSize > 0 {
			if err := study.SetBlockSize(batchSize); err != nil {
				return nil, nil, err
			}
		}
		return func(ctx context.Context, w io.Writer) error {
				return study.WriteMeasurementsCSV(ctx, w, nil, 0)
			}, func(ctx context.Context, w io.Writer) error {
				return study.WriteAggregatesCSV(ctx, w, nil, 0)
			}, nil
	}

	var urls []string
	for _, u := range strings.Split(backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	sc, err := cluster.NewScheduler(urls, cluster.SchedulerOptions{
		Seed: &seed, LeaseCells: batchSize, LeaseExpiry: leaseExpiry, Tracer: tracer})
	if err != nil {
		return nil, nil, err
	}
	logStats := func() {
		st := sc.Stats()
		logger.Info("scheduler stats",
			slog.Int64("leases", st.LeasesIssued), slog.Int64("steals", st.Steals),
			slog.Int64("redispatches", st.Redispatches), slog.Int64("cells", st.CellsMeasured),
			slog.Int64("cells_discarded", st.CellsDiscarded),
			slog.Int64("truncations", st.StreamTruncations),
			slog.Int64("dispatch_failures", st.DispatchFailures),
			slog.Int64("breaker_opens", st.BreakerOpens))
		for _, be := range st.Backends {
			logger.Info("backend latency", slog.String("backend", be.URL),
				slog.Int64("requests", be.Requests), slog.Float64("p50_ms", be.P50Ms),
				slog.Float64("p90_ms", be.P90Ms), slog.Float64("p99_ms", be.P99Ms))
		}
	}
	sc.StartProber(ctx, 2*time.Second)
	logger.Info("measuring through backends", slog.Int("count", len(sc.Backends())),
		slog.String("backends", strings.Join(sc.Backends(), ", ")))
	ref, err := sc.Reference(ctx, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("building normalization reference: %w", err)
	}
	return func(ctx context.Context, w io.Writer) error {
			err := experiments.StreamMeasurementsCSVFrom(ctx, sc, ref, nil, w, 0)
			logStats()
			return err
		}, func(ctx context.Context, w io.Writer) error {
			err := experiments.StreamAggregatesCSVFrom(ctx, sc, ref, nil, w, 0)
			logStats()
			return err
		}, nil
}

func writeCSV(ctx context.Context, path string, stream streamFunc) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	if err := stream(ctx, fd); err != nil {
		return err
	}
	return fd.Close()
}

func writeTrace(path string, tracer *telemetry.Tracer) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	if err := tracer.WriteChromeTrace(fd, 0); err != nil {
		return err
	}
	return fd.Close()
}
