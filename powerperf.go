// Package powerperf is the public API of this reproduction of
// "Looking Back on the Language and Hardware Revolutions: Measured Power,
// Performance, and Scaling" (Esmaeilzadeh, Cao, Yang, Blackburn, McKinley;
// ASPLOS 2011).
//
// The package exposes the paper's complete measurement stack:
//
//   - a simulated fleet of the eight Intel IA32 processors of Table 3
//     (Fleet, ByName) with BIOS-style configuration of cores, SMT, clock,
//     and Turbo Boost (Config, ConfigSpace);
//   - the 61-benchmark workload of Table 1 across four equally weighted
//     groups (Benchmarks, BenchmarksByGroup);
//   - the power-measurement apparatus: per-machine Hall-effect current
//     sensors, calibration, and 50 Hz logging;
//   - the measurement methodology of Section 2 (Study.Measure and
//     Study.MeasureConfig), including reference normalization and
//     confidence intervals; and
//   - generators for every table and figure in the paper's evaluation
//     (Study.Table2 through Study.Figure12).
//
// A Study is deterministic in its seed: constructing two studies with the
// same seed reproduces every number exactly.
//
// Quick start:
//
//	study, err := powerperf.NewStudy(42)
//	if err != nil { ... }
//	rows, err := study.Table4()   // Table 4: perf & power per processor
//
// See DESIGN.md for the system inventory and the documented substitutions
// of simulated substrates for the paper's physical apparatus, and
// EXPERIMENTS.md for paper-versus-measured results for every artifact.
package powerperf

import (
	"context"
	"errors"
	"io"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/pareto"
	"repro/internal/proc"
	"repro/internal/sensor"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Re-exported domain types. These aliases are the package's vocabulary;
// their fields and methods are documented on the internal definitions.
type (
	// Processor is one member of the experimental fleet (Table 3).
	Processor = proc.Processor
	// Config is a BIOS-style hardware configuration (Section 2.8).
	Config = proc.Config
	// ConfiguredProcessor pairs a processor with a configuration.
	ConfiguredProcessor = proc.ConfiguredProcessor
	// Microarch is a microarchitecture family name.
	Microarch = proc.Microarch
	// Benchmark is one Table 1 workload descriptor.
	Benchmark = workload.Benchmark
	// Group is one of the four equally weighted workload groups.
	Group = workload.Group
	// Measurement is a fully measured benchmark/configuration pair.
	Measurement = harness.Measurement
	// ConfigResult is an aggregated configuration result (Section 2.6).
	ConfigResult = harness.ConfigResult
	// Reference is the four-processor normalization baseline.
	Reference = harness.Reference
	// ParetoPoint is one configuration's energy/performance position.
	ParetoPoint = pareto.Point
	// FeatureRatio is a relative perf/power/energy comparison from the
	// feature-analysis figures.
	FeatureRatio = experiments.Ratio
	// FeatureGroupEnergy is a comparison's per-group energy breakdown.
	FeatureGroupEnergy = experiments.GroupEnergy
	// Tracer records spans of the study pipeline (see SetTracer).
	Tracer = telemetry.Tracer
)

// NewTracer builds a span tracer retaining up to capacity completed
// spans (<= 0 selects the default, 4096). Attach with Study.SetTracer
// and export with Tracer.WriteChromeTrace.
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// Workload groups, re-exported for callers of BenchmarksByGroup.
const (
	NativeNonScalable = workload.NativeNonScalable
	NativeScalable    = workload.NativeScalable
	JavaNonScalable   = workload.JavaNonScalable
	JavaScalable      = workload.JavaScalable
)

// Fleet processor names (the paper's shorthand).
const (
	Pentium4 = proc.Pentium4Name
	Core2D65 = proc.Core2D65Name
	Core2Q65 = proc.Core2Q65Name
	I7       = proc.I7Name
	Atom45   = proc.Atom45Name
	Core2D45 = proc.Core2D45Name
	AtomD45  = proc.AtomD45Name
	I5       = proc.I5Name
)

// Fleet returns the eight experimental processors of Table 3.
func Fleet() []*Processor { return proc.Fleet() }

// ProcessorByName returns a fleet processor by its paper shorthand, e.g.
// powerperf.I7.
func ProcessorByName(name string) (*Processor, error) { return proc.ByName(name) }

// Benchmarks returns the 61 benchmarks of Table 1.
func Benchmarks() []*Benchmark { return workload.All() }

// BenchmarkByName returns one benchmark by name.
func BenchmarkByName(name string) (*Benchmark, error) { return workload.ByName(name) }

// BenchmarksByGroup returns the benchmarks of one workload group.
func BenchmarksByGroup(g Group) []*Benchmark { return workload.ByGroup(g) }

// Groups returns the four workload groups in the paper's order.
func Groups() []Group { return workload.Groups() }

// ConfigSpace returns the paper's 45 processor configurations.
func ConfigSpace() []ConfiguredProcessor { return proc.ConfigSpace() }

// ConfigSpace45nm returns the 29 45nm configurations of the Pareto
// analysis.
func ConfigSpace45nm() []ConfiguredProcessor { return proc.ConfigSpace45nm() }

// StockConfigs returns the eight stock configurations.
func StockConfigs() []ConfiguredProcessor { return proc.StockConfigs() }

// Study owns a calibrated measurement rig, the normalization reference,
// and a measurement cache; it is the entry point for reproducing the
// paper's dataset and analyses.
type Study struct {
	h   *harness.Harness
	ctx *experiments.Context
}

// NewStudy builds a study: it fabricates and calibrates one current
// sensor per fleet machine and measures the normalization reference
// (Section 2.6). The seed makes every subsequent number deterministic.
func NewStudy(seed int64) (*Study, error) {
	h, err := harness.New(seed)
	if err != nil {
		return nil, err
	}
	ref, err := h.Reference()
	if err != nil {
		return nil, err
	}
	return &Study{h: h, ctx: &experiments.Context{Measure: h.Measure, Ref: ref}}, nil
}

// Measure runs the full methodology for one benchmark on one configured
// processor: the prescribed invocation counts, sensor-logged power, and
// 95% confidence intervals. Results are cached within the study per
// exact configuration: clocks that share a 0.1 GHz label are measured
// apart.
func (s *Study) Measure(b *Benchmark, cp ConfiguredProcessor) (*Measurement, error) {
	if s == nil || s.ctx == nil {
		return nil, errors.New("powerperf: nil study")
	}
	return s.h.Measure(b, cp)
}

// MeasureConfig measures all 61 benchmarks on one configuration and
// aggregates them per Section 2.6 (equal group weighting, reference
// normalization).
func (s *Study) MeasureConfig(cp ConfiguredProcessor) (*ConfigResult, error) {
	if s == nil || s.ctx == nil {
		return nil, errors.New("powerperf: nil study")
	}
	return s.h.MeasureConfig(cp, s.ctx.Ref, nil)
}

// Reference exposes the four-processor normalization baseline.
func (s *Study) Reference() *Reference { return s.ctx.Ref }

// SetTracer attaches a span tracer to the study's harness: every
// MeasureGrid / CSV-stream batch and cell records a span, exportable
// with Tracer().WriteChromeTrace. Tracing is a pure side channel —
// study results are byte-identical with it on or off. nil disables.
func (s *Study) SetTracer(t *telemetry.Tracer) {
	if s != nil && s.ctx != nil {
		s.h.SetTracer(t)
	}
}

// Tracer returns the study's attached tracer (nil when disabled).
func (s *Study) Tracer() *telemetry.Tracer {
	if s == nil || s.ctx == nil {
		return nil
	}
	return s.h.Tracer()
}

// ValidateRig sweeps every calibrated sensor across known currents and
// reports the worst error, reproducing the paper's meter validation.
func (s *Study) ValidateRig(knownAmps []float64) ([]sensor.ValidationReport, error) {
	return s.h.Rig().Validate(knownAmps)
}

// Experiment generators: one per table and figure of the evaluation.

// Table2 regenerates Table 2 (aggregate 95% confidence intervals). A nil
// configuration list uses the eight stock processors.
func (s *Study) Table2(cps []ConfiguredProcessor) (*experiments.Table2Result, error) {
	return experiments.Table2(s.ctx, cps)
}

// Table3 returns the processor-specification rows of Table 3.
func (s *Study) Table3() []experiments.Table3Row { return experiments.Table3() }

// Table4 regenerates Table 4 (performance and power per processor).
func (s *Study) Table4() ([]experiments.Table4Row, error) { return experiments.Table4(s.ctx) }

// Table5 regenerates Table 5 (Pareto-efficient 45nm configurations).
func (s *Study) Table5() (*experiments.Table5Result, error) { return experiments.Table5(s.ctx) }

// Figure1 regenerates Figure 1 (Java multithreaded scalability).
func (s *Study) Figure1() (*experiments.Figure1Result, error) { return experiments.Figure1(s.ctx) }

// Figure2 regenerates Figure 2 (measured power versus TDP).
func (s *Study) Figure2() (*experiments.Figure2Result, error) { return experiments.Figure2(s.ctx) }

// Figure3 regenerates Figure 3 (power/performance distribution, i7).
func (s *Study) Figure3() (*experiments.Figure3Result, error) { return experiments.Figure3(s.ctx) }

// Figure4 regenerates Figure 4 (the CMP effect).
func (s *Study) Figure4() (*experiments.FeatureResult, error) { return experiments.Figure4(s.ctx) }

// Figure5 regenerates Figure 5 (the SMT effect).
func (s *Study) Figure5() (*experiments.FeatureResult, error) { return experiments.Figure5(s.ctx) }

// Figure6 regenerates Figure 6 (CMP effect on single-threaded Java).
func (s *Study) Figure6() (*experiments.Figure6Result, error) { return experiments.Figure6(s.ctx) }

// Figure7 regenerates Figure 7 (clock scaling).
func (s *Study) Figure7() (*experiments.Figure7Result, error) { return experiments.Figure7(s.ctx) }

// Figure8 regenerates Figure 8 (die shrink).
func (s *Study) Figure8() (*experiments.Figure8Result, error) { return experiments.Figure8(s.ctx) }

// Figure9 regenerates Figure 9 (gross microarchitecture change).
func (s *Study) Figure9() (*experiments.Figure9Result, error) { return experiments.Figure9(s.ctx) }

// Figure10 regenerates Figure 10 (Turbo Boost).
func (s *Study) Figure10() (*experiments.Figure10Result, error) { return experiments.Figure10(s.ctx) }

// Figure11 regenerates Figure 11 (historical overview, per-transistor).
func (s *Study) Figure11() (*experiments.Figure11Result, error) { return experiments.Figure11(s.ctx) }

// Figure12 regenerates Figure 12 (Pareto frontiers at 45nm).
func (s *Study) Figure12() (*experiments.Figure12Result, error) { return experiments.Figure12(s.ctx) }

// Extended analyses beyond the paper's numbered artifacts.

// Section31 reproduces the Section 3.1 counter drill-down behind
// Workload Finding 1: per-benchmark speedups, JVM service fractions, and
// DTLB miss ratios for single-threaded Java at one versus two cores.
func (s *Study) Section31() (*experiments.Section31Result, error) {
	return experiments.Section31(s.ctx)
}

// JVMComparison reproduces the Section 2.2 JVM cross-check: HotSpot
// versus JRockit versus J9 aggregate performance and power.
func (s *Study) JVMComparison() (*experiments.JVMComparisonResult, error) {
	return experiments.JVMComparison(s.ctx)
}

// MeterComparison contrasts the paper's on-chip rail measurement with a
// whole-system clamp-ammeter methodology (Section 5).
func (s *Study) MeterComparison() (*experiments.MeterComparisonResult, error) {
	return experiments.MeterComparison(s.ctx)
}

// KernelBug reproduces the Section 2.8 ablation: BIOS core disabling
// versus the buggy OS hotplug path whose power moves the wrong way.
func (s *Study) KernelBug() (*experiments.KernelBugResult, error) {
	return experiments.KernelBug(s.ctx)
}

// HeapSweep reproduces the methodology ablation behind the 3x-minimum
// heap choice (Section 2.2).
func (s *Study) HeapSweep() (*experiments.HeapSweepResult, error) {
	return experiments.HeapSweep(s.ctx)
}

// ScalingAnalysis compares the measured die shrinks with Dennard,
// post-Dennard, and ITRS scaling, and runs the Section 4.1 Pentium 4
// projection.
func (s *Study) ScalingAnalysis() (*experiments.ScalingResult, error) {
	return experiments.ScalingAnalysis(s.ctx)
}

// PowerBreakdown decomposes chip power by structure on the stock i7 —
// the per-structure power-meter view the paper's conclusion recommends.
func (s *Study) PowerBreakdown() (*experiments.BreakdownResult, error) {
	return experiments.PowerBreakdown(s.ctx)
}

// MeasureGrid measures the cross product of configurations and
// benchmarks across a worker pool (workers <= 0 selects GOMAXPROCS) and
// returns the measurements in grid order. Nil arguments select the eight
// stock configurations and all 61 benchmarks. Parallel execution is
// numerically identical to serial: every run derives its own noise and
// jitter streams from its identity. Cancelling ctx aborts the batch at
// cell granularity.
func (s *Study) MeasureGrid(ctx context.Context, cps []ConfiguredProcessor, benches []*Benchmark, workers int) ([]*Measurement, error) {
	if s == nil || s.ctx == nil {
		return nil, errors.New("powerperf: nil study")
	}
	return s.h.MeasureBatch(ctx, harness.GridJobs(cps, benches), workers)
}

// Findings evaluates the paper's thirteen named findings (Workload 1-4,
// Architecture 1-9) against this study's measurements — the reproduction
// report in programmatic form.
func (s *Study) Findings() (*experiments.FindingsResult, error) {
	return experiments.Findings(s.ctx)
}

// WriteMeasurementsCSV streams the companion dataset's measurements.csv
// (every benchmark on every configuration of cps; nil selects the 45
// study configurations) to w, flushing per configuration. The bytes are
// identical to the committed dataset for the same seed — the dataset
// files, the fullstudy command, and the powerperfd dataset endpoint all
// share this writer.
func (s *Study) WriteMeasurementsCSV(ctx context.Context, w io.Writer, cps []ConfiguredProcessor, workers int) error {
	if s == nil || s.ctx == nil {
		return errors.New("powerperf: nil study")
	}
	return experiments.StreamMeasurementsCSVFrom(ctx, s.h, s.ctx.Ref, cps, w, workers)
}

// WriteAggregatesCSV streams the companion dataset's aggregates.csv
// (Section 2.6 group and weighted averages per configuration) to w.
func (s *Study) WriteAggregatesCSV(ctx context.Context, w io.Writer, cps []ConfiguredProcessor, workers int) error {
	if s == nil || s.ctx == nil {
		return errors.New("powerperf: nil study")
	}
	return experiments.StreamAggregatesCSVFrom(ctx, s.h, s.ctx.Ref, cps, w, workers)
}
