package harness

import (
	"errors"
	"fmt"

	"repro/internal/proc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Reference holds the normalization baselines of Section 2.6: for each
// benchmark, the mean execution time across the four reference processors
// (one per microarchitecture and technology generation) and the reference
// energy (mean power across those four times the mean time).
type Reference struct {
	Seconds map[string]float64
	EnergyJ map[string]float64
}

// MeasureFunc is a measurement source: the harness's own Measure, or a
// remote source (the cluster client) that returns bit-identical
// measurements by the determinism contract.
type MeasureFunc func(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*Measurement, error)

// ReferenceCells lists the (benchmark, reference processor) grid the
// normalization table is built from, in the order BuildReference
// consumes it.
func ReferenceCells() ([]proc.ConfiguredProcessor, error) {
	refs := make([]proc.ConfiguredProcessor, 0, 4)
	for _, name := range proc.ReferenceNames() {
		p, err := proc.ByName(name)
		if err != nil {
			return nil, err
		}
		refs = append(refs, proc.ConfiguredProcessor{Proc: p, Config: p.Stock()})
	}
	return refs, nil
}

// BuildReference builds the Section 2.6 normalization table from any
// measurement source. The accumulation order is fixed (benchmarks outer,
// reference processors in ReferenceNames order inner), so every source
// that returns bit-identical measurements produces a bit-identical
// table.
func BuildReference(measure MeasureFunc) (*Reference, error) {
	refs, err := ReferenceCells()
	if err != nil {
		return nil, err
	}
	out := &Reference{
		Seconds: make(map[string]float64, 61),
		EnergyJ: make(map[string]float64, 61),
	}
	for _, b := range workload.All() {
		var times, watts []float64
		for _, cp := range refs {
			m, err := measure(b, cp)
			if err != nil {
				return nil, err
			}
			times = append(times, m.Seconds)
			watts = append(watts, m.Watts)
		}
		t := stats.Mean(times)
		out.Seconds[b.Name] = t
		out.EnergyJ[b.Name] = stats.Mean(watts) * t
	}
	return out, nil
}

// Reference measures all 61 benchmarks on the four stock reference
// processors and builds the normalization table. The harness cache makes
// repeated calls cheap.
func (h *Harness) Reference() (*Reference, error) {
	return BuildReference(h.Measure)
}

// Normalized is one benchmark's reference-normalized result.
type Normalized struct {
	Bench *workload.Benchmark
	// Perf is reference time over measured time: higher is better.
	Perf float64
	// Watts is measured average power, reported directly (power is not
	// biased by execution time).
	Watts float64
	// Energy is measured energy over reference energy: lower is better.
	Energy float64
}

// Normalize converts a measurement using the reference table.
func (r *Reference) Normalize(m *Measurement) (Normalized, error) {
	refT, ok := r.Seconds[m.Bench.Name]
	if !ok {
		return Normalized{}, fmt.Errorf("harness: no reference time for %s", m.Bench.Name)
	}
	refE := r.EnergyJ[m.Bench.Name]
	if refT <= 0 || refE <= 0 {
		return Normalized{}, fmt.Errorf("harness: degenerate reference for %s", m.Bench.Name)
	}
	return Normalized{
		Bench:  m.Bench,
		Perf:   refT / m.Seconds,
		Watts:  m.Watts,
		Energy: m.EnergyJ / refE,
	}, nil
}

// GroupResult aggregates one workload group on one configuration.
type GroupResult struct {
	Group  workload.Group
	Perf   float64 // arithmetic mean of normalized performance
	Watts  float64 // arithmetic mean of average power
	Energy float64 // arithmetic mean of normalized energy
	N      int
}

// ConfigResult aggregates a full configuration: the four group results,
// the equally weighted average the paper reports (Avg_w), the simple
// per-benchmark average (Avg_b), and extremes.
type ConfigResult struct {
	CP     proc.ConfiguredProcessor
	Groups [4]GroupResult

	// Weighted averages: mean of the four group means.
	PerfW, WattsW, EnergyW float64
	// Simple per-benchmark averages.
	PerfB, WattsB, EnergyB float64

	PerfMin, PerfMax   float64
	WattsMin, WattsMax float64
}

// MeasureConfig measures every benchmark of the given groups on one
// configuration and aggregates per Section 2.6. Passing nil groups
// selects all four.
func (h *Harness) MeasureConfig(cp proc.ConfiguredProcessor, ref *Reference, groups []workload.Group) (*ConfigResult, error) {
	return AggregateConfig(cp, h.Measure, ref, groups)
}

// AggregateConfig aggregates one configuration per Section 2.6 from any
// measurement source, with the same accumulation order as MeasureConfig
// (groups outer, each group's benchmarks in workload order inner) so
// results are bit-identical across sources.
func AggregateConfig(cp proc.ConfiguredProcessor, measure MeasureFunc, ref *Reference, groups []workload.Group) (*ConfigResult, error) {
	if ref == nil {
		return nil, errors.New("harness: nil reference")
	}
	if groups == nil {
		groups = workload.Groups()
	}
	res := &ConfigResult{CP: cp}
	var allPerf, allWatts, allEnergy []float64
	var groupPerf, groupWatts, groupEnergy []float64
	for _, g := range groups {
		var perfs, watts, energies []float64
		for _, b := range workload.ByGroup(g) {
			m, err := measure(b, cp)
			if err != nil {
				return nil, err
			}
			n, err := ref.Normalize(m)
			if err != nil {
				return nil, err
			}
			perfs = append(perfs, n.Perf)
			watts = append(watts, n.Watts)
			energies = append(energies, n.Energy)
		}
		gr := GroupResult{
			Group:  g,
			Perf:   stats.Mean(perfs),
			Watts:  stats.Mean(watts),
			Energy: stats.Mean(energies),
			N:      len(perfs),
		}
		res.Groups[int(g)] = gr
		groupPerf = append(groupPerf, gr.Perf)
		groupWatts = append(groupWatts, gr.Watts)
		groupEnergy = append(groupEnergy, gr.Energy)
		allPerf = append(allPerf, perfs...)
		allWatts = append(allWatts, watts...)
		allEnergy = append(allEnergy, energies...)
	}
	res.PerfW = stats.Mean(groupPerf)
	res.WattsW = stats.Mean(groupWatts)
	res.EnergyW = stats.Mean(groupEnergy)
	res.PerfB = stats.Mean(allPerf)
	res.WattsB = stats.Mean(allWatts)
	res.EnergyB = stats.Mean(allEnergy)
	res.PerfMin = stats.Min(allPerf)
	res.PerfMax = stats.Max(allPerf)
	res.WattsMin = stats.Min(allWatts)
	res.WattsMax = stats.Max(allWatts)
	return res, nil
}

// CITable summarizes measurement error per group the way Table 2 does:
// average and maximum relative 95% confidence intervals for execution
// time and power across a set of configurations.
type CITable struct {
	Groups  [4]CIRow
	Overall CIRow
}

// CIRow is one row of Table 2.
type CIRow struct {
	TimeAvg, TimeMax   float64
	PowerAvg, PowerMax float64
}

// ConfidenceTable computes Table 2 over the given configurations from
// any measurement source.
func ConfidenceTable(measure MeasureFunc, cps []proc.ConfiguredProcessor) (*CITable, error) {
	if len(cps) == 0 {
		return nil, errors.New("harness: no configurations")
	}
	var tbl CITable
	var perGroup [4][]float64 // relative time CIs
	var perGroupP [4][]float64
	for _, cp := range cps {
		for _, b := range workload.All() {
			m, err := measure(b, cp)
			if err != nil {
				return nil, err
			}
			g := int(b.Group)
			perGroup[g] = append(perGroup[g], m.TimeCI.Relative())
			perGroupP[g] = append(perGroupP[g], m.PowerCI.Relative())
		}
	}
	var allT, allP []float64
	for g := 0; g < 4; g++ {
		tbl.Groups[g] = CIRow{
			TimeAvg:  stats.Mean(perGroup[g]),
			TimeMax:  stats.Max(perGroup[g]),
			PowerAvg: stats.Mean(perGroupP[g]),
			PowerMax: stats.Max(perGroupP[g]),
		}
		allT = append(allT, perGroup[g]...)
		allP = append(allP, perGroupP[g]...)
	}
	tbl.Overall = CIRow{
		TimeAvg:  stats.Mean(allT),
		TimeMax:  stats.Max(allT),
		PowerAvg: stats.Mean(allP),
		PowerMax: stats.Max(allP),
	}
	return &tbl, nil
}
