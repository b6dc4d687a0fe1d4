package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
)

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names and units.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"study_s", "s"},
	{"heap_mb", "MiB"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
	{"readback_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not run (the store on cold-study) reports 0.
var perLayer = []metricSpec{
	{"harness.native_cell_us", "us"},
	{"harness.managed_cell_us", "us"},
	{"harness.native_cell_allocs", "count"},
	{"harness.managed_cell_allocs", "count"},
	{"harness.new_ms", "ms"},
	{"experiments.reference_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"cluster.measurements_batch_ms", "ms"},
	{"cluster.aggregates_batch_ms", "ms"},
	{"cluster.lease_ms_p50", "ms"},
	{"cluster.lease_ms_p99", "ms"},
	{"cluster.wire_bytes_per_cell", "bytes"},
	{"cluster.decode_us_per_cell", "us"},
	{"cluster.leases", "count"},
	{"cluster.cells_requested", "count"},
	{"cluster.cells_discarded", "count"},
	{"cluster.steals", "count"},
	{"cluster.redispatches", "count"},
	{"cluster.useful_cell_ratio", "ratio"},
	{"service.handler_ms_p50", "ms"},
	{"service.handler_ms_p99", "ms"},
	{"service.interactive_handler_ms_p50", "ms"},
	{"service.interactive_handler_ms_p99", "ms"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.useful_fill_ratio", "ratio"},
	{"service.queue_depth_max", "count"},
	{"service.decode_request_us", "us"},
	{"store.rows_per_study", "count"},
	{"store.bytes_per_study", "bytes"},
	{"store.rows_per_cell", "ratio"},
	{"store.open_ms", "ms"},
	{"store.collect_ms", "ms"},
	{"store.ingest_dropped", "count"},
	{"store.write_errors", "count"},
	{"store.batches_lost", "count"},
	{"monitor.sweeps_per_study", "count"},
	{"monitor.sweep_ms", "ms"},
	{"monitor.harvest_ms", "ms"},
	{"traceanalytics.spans_seen", "count"},
	{"traceanalytics.traces_assembled", "count"},
	{"telemetry.metricsz_bytes", "bytes"},
	{"telemetry.parse_ms", "ms"},
	{"telemetry.spans_retained", "count"},
	{"runtime.cpu_s_per_study", "s"},
	{"runtime.gc_cycles_per_study", "count"},
	{"runtime.alloc_mb_per_study", "MiB"},
	{"runtime.mallocs_per_study", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.study_ms", "ms"},
	{"trace.self_experiments_ms", "ms"},
	{"trace.self_scheduler_ms", "ms"},
	{"trace.self_wire_ms", "ms"},
	{"trace.self_service_ms", "ms"},
	{"trace.leftover_ms", "ms"},
	{"trace.reconcile_gap_ms", "ms"},
	{"trace.untraced_study_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"ops.studies", "count"},
	{"ops.studies_failed", "count"},
	{"ops.interactive", "count"},
	{"ops.interactive_failed", "count"},
	{"ops.readbacks", "count"},
	{"ops.readbacks_failed", "count"},
	{"host.calibration_ms", "ms"},
}

// finish checks every output against its reference, then computes the
// run's metrics.
func (b *bench) finish() (*result, error) {
	want, err := expectedDigest(b.ctx, b.opts.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness reference: %w", err)
	}
	studiesFailed := b.studyErrs
	var untraced []float64
	for _, s := range b.studies {
		if s.digest != want {
			studiesFailed++
		} else if !s.traced {
			untraced = append(untraced, s.s)
		}
	}
	var readbackS []float64
	readbacksFailed := 0
	for _, r := range b.readbacks {
		if r.invalid || r.meas != want.meas || (r.agg != nil && *r.agg != want.agg) {
			readbacksFailed++
			continue
		}
		readbackS = append(readbackS, r.s)
	}
	mismatches, err := b.gen.verify()
	if err != nil {
		return nil, fmt.Errorf("interactive reference: %w", err)
	}
	interactiveFailed := b.gen.failed + mismatches

	studies := len(b.studies) + b.studyErrs
	res := &result{
		Attempted: studies + len(b.readbacks) + b.gen.sent,
		Failed:    studiesFailed + readbacksFailed + interactiveFailed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "studybench: %s seed %d: %d studies (%d failed), %d read-backs (%d failed), "+
		"%d interactive requests (%d failed, %d wrong) in a %.1fs window\n",
		b.opts.workload, b.opts.seed, studies, studiesFailed, len(b.readbacks), readbacksFailed,
		b.gen.sent, b.gen.failed, mismatches, b.windowS)
	b.report()

	vals := map[string]float64{}
	if !b.opts.trace {
		vals["setup_s"] = median(b.setups)
		vals["study_s"] = median(untraced)
		vals["heap_mb"] = median(b.vals["heap_mb"])
		vals["req_ms_p50"] = quantile(b.gen.latency, 0.5)
		vals["req_ms_p99"] = quantile(b.gen.latency, 0.99)
		vals["readback_s"] = median(readbackS)
		b.emit(res, endToEnd, vals)
		return res, nil
	}

	for name, vs := range b.vals {
		vals[name] = median(vs)
	}
	if err := b.microLayers(vals); err != nil {
		return nil, err
	}
	t := b.tr
	vals["experiments.reference_ms"] = median(t.spansNamed(spanReference))
	vals["cluster.measurements_batch_ms"] = median(t.spansNamed(spanPassMeasurements))
	vals["cluster.aggregates_batch_ms"] = median(t.spansNamed(spanPassAggregates))
	leases := t.spansNamed(spanLease)
	vals["cluster.lease_ms_p50"] = quantile(leases, 0.5)
	vals["cluster.lease_ms_p99"] = quantile(leases, 0.99)
	bulk, inter := t.spansNamed(spanHandlerBulk), t.spansNamed(spanHandlerInteractive)
	vals["service.handler_ms_p50"] = quantile(bulk, 0.5)
	vals["service.handler_ms_p99"] = quantile(bulk, 0.99)
	vals["service.interactive_handler_ms_p50"] = quantile(inter, 0.5)
	vals["service.interactive_handler_ms_p99"] = quantile(inter, 0.99)
	vals["loadgen.sent"] = float64(b.gen.sent)
	vals["loadgen.failed"] = float64(b.gen.failed)
	vals["loadgen.late_ms_p99"] = quantile(b.gen.late, 0.99)
	vals["ops.studies"] = float64(studies)
	vals["ops.studies_failed"] = float64(studiesFailed)
	vals["ops.interactive"] = float64(b.gen.sent)
	vals["ops.interactive_failed"] = float64(interactiveFailed)
	vals["ops.readbacks"] = float64(len(b.readbacks))
	vals["ops.readbacks_failed"] = float64(readbacksFailed)
	b.reconcile(vals, untraced)
	b.emit(res, perLayer, vals)
	path := filepath.Join(filepath.Dir(b.workdir), fmt.Sprintf("spans-%s-seed%d.jsonl", b.opts.workload, b.opts.seed))
	if err := t.writeTo(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// emit puts the metrics into the result, every time scaled to the
// nominal host speed (see calibrate.go).
func (b *bench) emit(res *result, specs []metricSpec, vals map[string]float64) {
	calib := median(b.calib)
	vals["host.calibration_ms"] = calib
	scale := float64(nominalCalibration) / 1e6 / calib
	fmt.Fprintf(os.Stderr, "studybench: calibration %.3f ms (median of %d), times scaled by %.4f; as measured:", calib, len(b.calib), scale)
	for _, m := range specs {
		v := vals[m.name]
		switch m.unit {
		case "s", "ms", "us":
			if m.name != "host.calibration_ms" {
				fmt.Fprintf(os.Stderr, " %s=%.5g", m.name, v)
				v *= scale
			}
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	fmt.Fprintln(os.Stderr)
}

// countNames are the per-study counts whose range report() prints, so
// steadiness runs show which repeat exactly.
var countNames = []string{
	"cluster.leases", "cluster.cells_requested", "cluster.cells_discarded", "cluster.steals",
	"cluster.redispatches", "service.cache_hits", "service.cache_misses", "store.rows_per_study",
	"store.bytes_per_study", "store.batches_lost", "monitor.sweeps_per_study", "runtime.gc_cycles_per_study",
	"runtime.mallocs_per_study", "cluster.wire_bytes_per_cell",
}

// report prints the distributions behind the run's medians to
// standard error.
func (b *bench) report() {
	var all []float64
	for _, s := range b.studies {
		all = append(all, s.s)
	}
	fmt.Fprintf(os.Stderr, "studybench: set-ups in s, this process first: %.4f\n", b.setups)
	fmt.Fprintf(os.Stderr, "studybench: study_s over %d studies: p10 %.4f p50 %.4f p90 %.4f\n",
		len(all), quantile(all, 0.1), quantile(all, 0.5), quantile(all, 0.9))
	lat := b.gen.latency
	fmt.Fprintf(os.Stderr, "studybench: interactive latency ms over %d replies: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f\n",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 0.999))
	fmt.Fprint(os.Stderr, "studybench: per-study counts, min..max:")
	for _, name := range countNames {
		if vs := b.vals[name]; len(vs) > 0 {
			fmt.Fprintf(os.Stderr, " %s %g..%g", name, quantile(vs, 0), quantile(vs, 1))
		}
	}
	fmt.Fprintln(os.Stderr)
}

// reconcile splits the median traced study's wall time into per-layer
// self times, which sum to its span by construction, checks for every
// traced study that the sum matches the study's own wall time as
// study() measured it, and reports the tracing overhead against the
// run's untraced studies.
func (b *bench) reconcile(vals map[string]float64, untraced []float64) {
	type tracedStudy struct {
		self  []int64
		total int64
	}
	var ts []tracedStudy
	var render []float64
	var gap int64
	for _, s := range b.studies {
		if !s.traced {
			continue
		}
		spans := b.tr.studySpans(s.id)
		self, total := selfTimes(spans)
		ts = append(ts, tracedStudy{self, total})
		diff := -int64(s.s * 1e9)
		for _, ns := range self {
			diff += ns
		}
		gap = max(gap, diff, -diff)
		var r int64
		for _, sp := range spans {
			switch sp.Name {
			case spanRenderMeasurements, spanRenderAggregates:
				r += sp.End - sp.Start
			case spanPassMeasurements, spanPassAggregates:
				r -= sp.End - sp.Start
			}
		}
		render = append(render, float64(r)/1e6)
	}
	vals["experiments.render_ms"] = median(render)
	if len(ts) == 0 {
		return
	}
	// The lower median, so the reported parts belong to one study.
	sort.Slice(ts, func(i, j int) bool { return ts[i].total < ts[j].total })
	mid := ts[(len(ts)-1)/2]
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i, name := range layers {
		key := "trace.self_" + name + "_ms"
		if name == "unwrapped" {
			key = "trace.leftover_ms"
		}
		vals[key] = ms(mid.self[i])
	}
	vals["trace.study_ms"] = ms(mid.total)
	vals["trace.reconcile_gap_ms"] = ms(gap)
	vals["trace.untraced_study_ms"] = median(untraced) * 1e3
	var tracedS []float64
	for _, t := range ts {
		tracedS = append(tracedS, ms(t.total)/1e3)
	}
	vals["trace.overhead_ms"] = (median(tracedS) - median(untraced)) * 1e3
}

// microLayers times single layers from outside, after the window, on
// one goroutine: the harness per cell, harness construction, and the
// wire decoders replayed over the recorded lease exchange.
func (b *bench) microLayers(vals map[string]float64) error {
	var newMS []float64
	var h *harness.Harness
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if h, err = harness.New(b.opts.seed); err != nil {
			return err
		}
		newMS = append(newMS, msSince(t0))
	}
	vals["harness.new_ms"] = median(newMS)

	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	var native, managed []float64
	for _, j := range jobs {
		t0 := time.Now()
		if _, err := h.MeasureUncached(j.Bench, j.CP); err != nil {
			return err
		}
		us := float64(time.Since(t0)) / 1e3
		if j.Bench.Managed() {
			managed = append(managed, us)
		} else {
			native = append(native, us)
		}
	}
	vals["harness.native_cell_us"] = median(native)
	vals["harness.managed_cell_us"] = median(managed)

	// Allocations per call, counted the way testing.AllocsPerRun counts
	// them, over configurations whose machines are already built.
	var nativeA, managedA []float64
	var m0, m1 runtime.MemStats
	for _, j := range jobs[:4*61] {
		runtime.ReadMemStats(&m0)
		if _, err := h.MeasureUncached(j.Bench, j.CP); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		n := float64(m1.Mallocs - m0.Mallocs)
		if j.Bench.Managed() {
			managedA = append(managedA, n)
		} else {
			nativeA = append(nativeA, n)
		}
	}
	vals["harness.native_cell_allocs"] = median(nativeA)
	vals["harness.managed_cell_allocs"] = median(managedA)

	if b.tr.leaseResp == nil || b.tr.leaseReq == nil {
		return fmt.Errorf("no lease exchange was recorded")
	}
	rv := cluster.NewResolver()
	var decode []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		dec := service.NewStreamDecoder(bytes.NewReader(b.tr.leaseResp))
		cells := 0
		for {
			ev, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("replay lease stream: %w", err)
			}
			if ev.Cell != nil {
				if _, err := rv.MeasurementFromCell(&ev.Cell.Result); err != nil {
					return err
				}
				cells++
			}
		}
		if cells == 0 {
			return fmt.Errorf("recorded lease stream holds no cells")
		}
		decode = append(decode, float64(time.Since(t0))/1e3/float64(cells))
	}
	vals["cluster.decode_us_per_cell"] = median(decode)

	var req []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, _, err := service.DecodeMeasureRequest(bytes.NewReader(b.tr.leaseReq)); err != nil {
			return fmt.Errorf("replay lease request: %w", err)
		}
		req = append(req, float64(time.Since(t0))/1e3)
	}
	vals["service.decode_request_us"] = median(req)
	return nil
}
