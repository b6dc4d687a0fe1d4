package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/report"
	"repro/internal/workload"
)

// MeasurementsHeader is the column set of the companion dataset's
// measurements.csv, shared by the fullstudy generator and the powerperfd
// dataset endpoint so both emit byte-identical files.
var MeasurementsHeader = []string{
	"configuration", "benchmark", "suite", "group",
	"seconds", "watts", "energy_j",
	"perf_norm", "energy_norm",
	"time_ci_rel", "power_ci_rel", "runs",
	"cpi", "llc_mpki", "dtlb_mpki", "service_frac",
}

// AggregatesHeader is the column set of aggregates.csv.
var AggregatesHeader = []string{
	"configuration", "group", "perf_norm", "watts", "energy_norm", "benchmarks",
}

// Source is a measurement provider for the dataset streamers: the local
// harness satisfies it directly, and the cluster coordinator satisfies
// it over HTTP. The determinism contract makes the two interchangeable —
// both return bit-identical measurements for the same cells, so the
// streamed CSVs are byte-identical regardless of the source.
type Source interface {
	MeasureBatch(ctx context.Context, jobs []harness.Job, workers int) ([]*harness.Measurement, error)
}

// StreamMeasurementsCSV measures the cross product of cps and all 61
// benchmarks and streams measurements.csv rows to w as configurations
// complete, flushing at configuration boundaries so HTTP clients see
// incremental progress. Nil cps selects the paper's 45 configurations.
// The grid is pre-warmed through the worker pool (workers <= 0 selects
// GOMAXPROCS); ctx aborts at measurement-cell granularity.
func StreamMeasurementsCSV(ctx context.Context, c *Context, cps []proc.ConfiguredProcessor, w io.Writer, workers int) error {
	if err := c.check(); err != nil {
		return err
	}
	return StreamMeasurementsCSVFrom(ctx, c.H, c.Ref, cps, w, workers)
}

// StreamMeasurementsCSVFrom is StreamMeasurementsCSV over any Source.
func StreamMeasurementsCSVFrom(ctx context.Context, src Source, ref *harness.Reference, cps []proc.ConfiguredProcessor, w io.Writer, workers int) error {
	if cps == nil {
		cps = proc.ConfigSpace()
	}
	jobs := harness.GridJobs(cps, nil)
	ms, err := src.MeasureBatch(ctx, jobs, workers)
	if err != nil {
		return err
	}
	s, err := report.NewZeroCSVStream(w, MeasurementsHeader...)
	if err != nil {
		return err
	}
	// GridJobs iterates configurations outer, benchmarks inner — the
	// row order of the committed dataset — so the batch result is the
	// row stream. The zero-alloc stream renders numbers with the same
	// bytes fmt's %.6g produced, so the committed goldens are unchanged;
	// the benchmark list is resolved once, not per configuration.
	benches := workload.All()
	i := 0
	for _, cp := range cps {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := cp.String()
		for _, b := range benches {
			m := ms[i]
			i++
			n, err := ref.Normalize(m)
			if err != nil {
				return err
			}
			s.Field(cfg)
			s.Field(b.Name)
			s.Field(string(b.Suite))
			s.Field(b.Group.String())
			s.FloatG6(m.Seconds)
			s.FloatG6(m.Watts)
			s.FloatG6(m.EnergyJ)
			s.FloatG6(n.Perf)
			s.FloatG6(n.Energy)
			s.FloatG6(m.TimeCI.Relative())
			s.FloatG6(m.PowerCI.Relative())
			s.Int(len(m.Runs))
			s.FloatG6(m.Counters.CPI())
			s.FloatG6(m.Counters.LLCMPKI())
			s.FloatG6(m.Counters.DTLBMPKI())
			s.FloatG6(m.Counters.ServiceFraction())
			if err := s.EndRow(); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return s.Close()
}

// StreamAggregatesCSV streams aggregates.csv rows (per-group and
// equally weighted averages per configuration, Section 2.6) to w. Nil
// cps selects the paper's 45 configurations.
func StreamAggregatesCSV(ctx context.Context, c *Context, cps []proc.ConfiguredProcessor, w io.Writer, workers int) error {
	if err := c.check(); err != nil {
		return err
	}
	return StreamAggregatesCSVFrom(ctx, c.H, c.Ref, cps, w, workers)
}

// StreamAggregatesCSVFrom is StreamAggregatesCSV over any Source.
func StreamAggregatesCSVFrom(ctx context.Context, src Source, ref *harness.Reference, cps []proc.ConfiguredProcessor, w io.Writer, workers int) error {
	if cps == nil {
		cps = proc.ConfigSpace()
	}
	jobs := harness.GridJobs(cps, nil)
	ms, err := src.MeasureBatch(ctx, jobs, workers)
	if err != nil {
		return err
	}
	// AggregateConfig consumes the batch as a MeasureFunc in its own
	// (group-major) order. GridJobs is configuration-major in workload
	// order, so configuration ci's measurement of a benchmark sits at
	// ci*perConfig plus the benchmark's workload position; a job whose
	// identity disagrees with the lookup is missing from the batch.
	perConfig := 0
	if len(cps) > 0 {
		perConfig = len(jobs) / len(cps)
	}
	pos := make(map[string]int, perConfig)
	for i := range jobs[:perConfig] {
		pos[jobs[i].Bench.Name] = i
	}
	ci := 0
	lookup := func(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*harness.Measurement, error) {
		i, ok := pos[b.Name]
		i += ci * perConfig
		if !ok || i >= len(jobs) || i >= len(ms) || jobs[i].Bench.Name != b.Name ||
			jobs[i].CP.Proc.Name != cp.Proc.Name || jobs[i].CP.Config != cp.Config {
			return nil, fmt.Errorf("experiments: %s on %s missing from batch", b.Name, cp)
		}
		return ms[i], nil
	}
	s, err := report.NewZeroCSVStream(w, AggregatesHeader...)
	if err != nil {
		return err
	}
	for ci = range cps {
		cp := cps[ci]
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := harness.AggregateConfig(cp, lookup, ref, nil)
		if err != nil {
			return err
		}
		cfg := cp.String()
		for _, g := range workload.Groups() {
			gr := res.Groups[int(g)]
			s.Field(cfg)
			s.Field(g.String())
			s.FloatG6(gr.Perf)
			s.FloatG6(gr.Watts)
			s.FloatG6(gr.Energy)
			s.Int(gr.N)
			if err := s.EndRow(); err != nil {
				return err
			}
		}
		s.Field(cfg)
		s.Field("Average")
		s.FloatG6(res.PerfW)
		s.FloatG6(res.WattsW)
		s.FloatG6(res.EnergyW)
		s.Int(61)
		if err := s.EndRow(); err != nil {
			return err
		}
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return s.Close()
}
