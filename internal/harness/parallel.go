package harness

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Job names one measurement of the study's grid.
type Job struct {
	Bench *workload.Benchmark
	CP    proc.ConfiguredProcessor
}

// Cell is a measurement cell's identity under one seed: the benchmark,
// the processor and the exact configuration. It is comparable, so it
// keys every in-process memo and lookup, and AppendKey renders it for
// the keys that must be bytes. proc.Config.String is only a display
// label: configurations that share a 0.1 GHz label are distinct cells.
type Cell struct {
	Bench  string
	Proc   string
	Config proc.Config
}

// Cell returns the job's identity. Bench and CP.Proc must be non-nil.
func (j Job) Cell() Cell {
	return Cell{Bench: j.Bench.Name, Proc: j.CP.Proc.Name, Config: j.CP.Config}
}

// AppendKey appends c's determinism tuple under seed to dst,
// "seed|bench|proc|cores|smt|clock|turbo": the daemon's cache key and the
// scheduler's rendezvous key. The bytes are the former
// fmt.Sprintf("%d|%s|%s|%d|%d|%.17g|%t", ...) form's, so cached cells
// and lease homes stay put, and 17 digits render any clock round-trip
// exact. No benchmark or processor name contains the separator.
func AppendKey(dst []byte, seed int64, c Cell) []byte {
	dst = strconv.AppendInt(dst, seed, 10)
	dst = append(dst, '|')
	dst = append(dst, c.Bench...)
	dst = append(dst, '|')
	dst = append(dst, c.Proc...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(c.Config.Cores), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(c.Config.SMTWays), 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, c.Config.ClockGHz, 'g', 17, 64)
	dst = append(dst, '|')
	return strconv.AppendBool(dst, c.Config.Turbo)
}

// MeasureBatch runs a set of measurements across a worker pool and
// returns them in job order. Measurements are deterministic in the
// harness seed and independent of scheduling order (each run derives its
// own seed from its identity), so parallel and serial execution produce
// byte-identical results — the property that lets the full 45x61 study
// regenerate quickly without giving up the paper's reproducibility.
//
// workers <= 0 selects GOMAXPROCS. The first error cancels the batch, as
// does ctx: workers stop claiming jobs once the context is done and the
// batch returns ctx.Err() promptly (in-flight cells finish their current
// measurement first — a cell is the cancellation granularity).
func (h *Harness) MeasureBatch(ctx context.Context, jobs []Job, workers int) ([]*Measurement, error) {
	return h.measureBatchBlocks(ctx, jobs, workers, 0)
}

// measureBatchBlocks is MeasureBatch with an explicit scheduling block:
// one dispatch claims `block` consecutive jobs. GridJobs order is
// configuration-major, so a block's cells share a machine — and through
// the machine memo and the simulator's plan cache, one set of compiled
// segment kernels — keeping per-cell setup off the hot path. block <= 0
// selects the automatic size; only tests pass another.
func (h *Harness) measureBatchBlocks(ctx context.Context, jobs []Job, workers, block int) ([]*Measurement, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if block <= 0 {
		// Big enough to amortize per-cell scheduling and setup, small
		// enough that every worker stays busy until the tail.
		block = min(max(len(jobs)/(4*workers), 1), 16)
	}

	// Telemetry is a pure side channel: the span observes wall time
	// only, never seeds or measured values, so traced and untraced
	// batches produce byte-identical results.
	ctx, batchSpan := h.tracer.StartSpan(ctx, "harness.MeasureBatch",
		telemetry.Int("jobs", len(jobs)), telemetry.Int("workers", workers),
		telemetry.Int("block", block))
	defer batchSpan.End()

	// Workers claim blocks of jobs from an atomic index rather than a
	// producer channel: a channel feed deadlocks the producer if every
	// worker exits early on an error, since nothing drains the remaining
	// sends. Blocks amortize the claim and per-configuration setup.
	results := make([]*Measurement, len(jobs))
	errCh := make(chan error, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= len(jobs) || failed.Load() || ctx.Err() != nil {
					return
				}
				hi := lo + block
				if hi > len(jobs) {
					hi = len(jobs)
				}
				for i := lo; i < hi; i++ {
					if failed.Load() || ctx.Err() != nil {
						return
					}
					m, err := h.measureCellTraced(ctx, jobs[i])
					if err != nil {
						failed.Store(true)
						select {
						case errCh <- err:
						default:
						}
						return
					}
					results[i] = m
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, m := range results {
		if m == nil {
			return nil, fmt.Errorf("harness: job %d (%s on %s) not measured",
				i, jobs[i].Bench.Name, jobs[i].CP)
		}
	}
	return results, nil
}

// measureCellTraced wraps one cell measurement in a span. The span
// parents under the batch span in ctx, so a trace shows each batch
// fanning into its cells.
func (h *Harness) measureCellTraced(ctx context.Context, j Job) (*Measurement, error) {
	// Malformed jobs (nil benchmark) must reach Measure's validation and
	// come back as errors, not panic in the instrumentation.
	bench, processor := "<nil>", "<nil>"
	if j.Bench != nil {
		bench = j.Bench.Name
	}
	if j.CP.Proc != nil {
		processor = j.CP.Proc.Name
	}
	_, span := h.tracer.StartSpan(ctx, "harness.cell",
		telemetry.String("benchmark", bench),
		telemetry.String("processor", processor))
	m, err := h.Measure(j.Bench, j.CP)
	if err != nil {
		span.Annotate(telemetry.String("error", err.Error()))
	}
	span.End()
	return m, err
}

// GridJobs builds the full cross product of configurations and
// benchmarks in deterministic order. Nil arguments select the eight
// stock configurations and all 61 benchmarks respectively.
func GridJobs(cps []proc.ConfiguredProcessor, benches []*workload.Benchmark) []Job {
	if cps == nil {
		cps = proc.StockConfigs()
	}
	if benches == nil {
		benches = workload.All()
	}
	jobs := make([]Job, 0, len(cps)*len(benches))
	for _, cp := range cps {
		for _, b := range benches {
			jobs = append(jobs, Job{Bench: b, CP: cp})
		}
	}
	return jobs
}
