// Package trend replays stored studies across the fleet's technology
// generations and tracks how the measured energy/performance Pareto
// frontier of Section 4.2 drifts as each process node arrives. The
// replay is cumulative — generation k sees every configuration built on
// node k or any earlier node — mirroring how the paper's five-year
// retrospective accumulates hardware rather than replacing it.
//
// The pipeline is deliberately thin: all aggregation runs through
// harness.AggregateConfig and all dominance analysis through
// pareto.Frontier, so a trend report computed from stored rows is
// bit-identical to one computed from live measurements of the same
// seed.
package trend

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/harness"
	"repro/internal/pareto"
	"repro/internal/proc"
	"repro/internal/workload"
)

// Source is the slice of measured data a trend replay runs over.
// store.Dataset satisfies it structurally; tests may substitute any
// in-memory equivalent.
type Source interface {
	// Configs lists the distinct configurations present, canonical
	// study order first.
	Configs() []proc.ConfiguredProcessor
	// Complete reports whether every benchmark of the given groups has
	// a measurement on cp.
	Complete(cp proc.ConfiguredProcessor, groups []workload.Group) bool
	// Measure is the harness.MeasureFunc lookup over the data.
	Measure(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*harness.Measurement, error)
	// Reference rebuilds the Section 2.6 normalization table.
	Reference() (*harness.Reference, error)
	// Seeds lists the seeds contributing measurements, ascending.
	Seeds() []int64
}

// Point is one configuration's position in the tradeoff space of one
// generation's replay.
type Point struct {
	Label     string  `json:"label"`
	Processor string  `json:"processor"`
	NodeNM    int     `json:"node_nm"`
	Perf      float64 `json:"perf_norm"`
	Energy    float64 `json:"energy_norm"`
	Watts     float64 `json:"watts"`
	Efficient bool    `json:"efficient"`
}

// Drift quantifies how a generation's frontier moved relative to the
// previous generation's.
type Drift struct {
	// NewEfficient counts frontier members that were not efficient (or
	// not present) in the previous generation.
	NewEfficient int `json:"new_efficient"`
	// Displaced counts previous frontier members pushed off the
	// frontier by this generation's arrivals.
	Displaced int `json:"displaced"`
	// BestPerfGain is the relative gain in the frontier's best
	// normalized performance (0.25 = 25% faster at the top end).
	BestPerfGain float64 `json:"best_perf_gain"`
	// MinEnergyDrop is the relative drop in the frontier's lowest
	// normalized energy (0.25 = the thriftiest point got 25% thriftier).
	MinEnergyDrop float64 `json:"min_energy_drop"`
	// EnergyReductionAtPerf is the mean relative energy reduction at
	// matched performance, sampled over the overlap of the two
	// frontiers' performance ranges by piecewise-linear interpolation.
	// Zero when the ranges do not overlap.
	EnergyReductionAtPerf float64 `json:"energy_reduction_at_matched_perf"`
	// OverlapLo/OverlapHi bound the sampled performance range.
	OverlapLo float64 `json:"overlap_lo"`
	OverlapHi float64 `json:"overlap_hi"`
}

// Generation is one technology node's cumulative replay.
type Generation struct {
	// NodeNM is the process node that arrives with this generation.
	NodeNM int `json:"node_nm"`
	// Processors lists the fleet members available by this generation,
	// fleet order.
	Processors []string `json:"processors"`
	// Points holds every aggregated configuration available by this
	// generation, with frontier membership marked.
	Points []Point `json:"points"`
	// Frontier lists the efficient labels in ascending-performance
	// order.
	Frontier []string `json:"frontier"`
	// BestPerf and MinEnergy are the frontier's extremes.
	BestPerf  float64 `json:"best_perf"`
	MinEnergy float64 `json:"min_energy"`
	// FrontierWattsMin/Max bound measured wall power across the
	// efficient set; PowerSwing = 1 - min/max is the fraction of peak
	// power the efficient set can shed by configuration choice alone —
	// a config-space analogue of energy proportionality.
	FrontierWattsMin float64 `json:"frontier_watts_min"`
	FrontierWattsMax float64 `json:"frontier_watts_max"`
	PowerSwing       float64 `json:"power_swing"`
	// Drift compares against the previous generation; nil for the
	// first.
	Drift *Drift `json:"drift,omitempty"`
}

// Report is a full longitudinal replay.
type Report struct {
	// Seeds lists the seeds behind the replayed measurements.
	Seeds []int64 `json:"seeds"`
	// Groups names the workload groups aggregated (empty = all four).
	Groups []string `json:"groups,omitempty"`
	// Skipped lists configurations present but incomplete (missing
	// benchmark cells), which the replay excludes.
	Skipped []string `json:"skipped,omitempty"`
	// Generations are ordered oldest node first.
	Generations []Generation `json:"generations"`
}

// driftSamples is the piecewise-linear sample count used for the
// matched-performance energy comparison.
const driftSamples = 33

// Analyze replays src across technology generations. Groups selects the
// workload groups to aggregate (nil = all four). It errors when no
// configuration is complete enough to aggregate.
func Analyze(src Source, groups []workload.Group) (*Report, error) {
	ref, err := src.Reference()
	if err != nil {
		return nil, fmt.Errorf("trend: normalization reference: %w", err)
	}
	nodeOf := make(map[string]int)
	for _, p := range proc.Fleet() {
		nodeOf[p.Name] = p.Spec.NodeNM
	}

	rep := &Report{Seeds: src.Seeds()}
	for _, g := range groups {
		rep.Groups = append(rep.Groups, g.String())
	}

	// Aggregate every complete configuration once; tag with its node.
	type tagged struct {
		pt   Point
		node int
	}
	var all []tagged
	for _, cp := range src.Configs() {
		node, ok := nodeOf[cp.Proc.Name]
		if !ok {
			return nil, fmt.Errorf("trend: processor %q not in fleet", cp.Proc.Name)
		}
		if !src.Complete(cp, groups) {
			rep.Skipped = append(rep.Skipped, cp.String())
			continue
		}
		res, err := harness.AggregateConfig(cp, src.Measure, ref, groups)
		if err != nil {
			return nil, err
		}
		all = append(all, tagged{node: node, pt: Point{
			Label:     cp.String(),
			Processor: cp.Proc.Name,
			NodeNM:    node,
			Perf:      res.PerfW,
			Energy:    res.EnergyW,
			Watts:     res.WattsW,
		}})
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("trend: no complete configurations to replay (%d skipped)", len(rep.Skipped))
	}

	// Generations arrive oldest (largest) node first.
	seen := make(map[int]bool)
	var nodes []int
	for _, tg := range all {
		if !seen[tg.node] {
			seen[tg.node] = true
			nodes = append(nodes, tg.node)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(nodes)))

	var prevFront []pareto.Point
	for _, node := range nodes {
		gen := Generation{NodeNM: node}
		procSeen := make(map[string]bool)
		var pts []Point
		for _, tg := range all {
			if tg.node < node {
				continue // arrives in a later generation
			}
			pts = append(pts, tg.pt)
		}
		for _, p := range proc.Fleet() {
			for _, pt := range pts {
				if pt.Processor == p.Name && !procSeen[p.Name] {
					procSeen[p.Name] = true
					gen.Processors = append(gen.Processors, p.Name)
				}
			}
		}

		pps := make([]pareto.Point, len(pts))
		for i, pt := range pts {
			pps[i] = pareto.Point{Label: pt.Label, Perf: pt.Perf, Energy: pt.Energy}
		}
		front := pareto.Frontier(pps)
		// Keyed by the whole point, not its label: configurations that
		// share a 0.1 GHz label are distinct points.
		efficient := make(map[pareto.Point]bool, len(front))
		for _, p := range front {
			efficient[p] = true
			gen.Frontier = append(gen.Frontier, p.Label)
		}
		for i := range pts {
			pts[i].Efficient = efficient[pps[i]]
		}
		gen.Points = pts

		gen.BestPerf = front[len(front)-1].Perf
		gen.MinEnergy = front[0].Energy
		for _, p := range front {
			if p.Energy < gen.MinEnergy {
				gen.MinEnergy = p.Energy
			}
		}
		first := true
		for _, pt := range pts {
			if !pt.Efficient {
				continue
			}
			if first || pt.Watts < gen.FrontierWattsMin {
				gen.FrontierWattsMin = pt.Watts
			}
			if first || pt.Watts > gen.FrontierWattsMax {
				gen.FrontierWattsMax = pt.Watts
			}
			first = false
		}
		if gen.FrontierWattsMax > 0 {
			gen.PowerSwing = 1 - gen.FrontierWattsMin/gen.FrontierWattsMax
		}

		if prevFront != nil {
			gen.Drift = driftBetween(prevFront, front)
		}
		prevFront = front
		rep.Generations = append(rep.Generations, gen)
	}
	return rep, nil
}

// driftBetween compares two frontiers (both in ascending-performance
// order, as pareto.Frontier returns them).
func driftBetween(prev, cur []pareto.Point) *Drift {
	d := &Drift{}
	prevSet := make(map[pareto.Point]bool, len(prev))
	for _, p := range prev {
		prevSet[p] = true
	}
	curSet := make(map[pareto.Point]bool, len(cur))
	for _, p := range cur {
		curSet[p] = true
		if !prevSet[p] {
			d.NewEfficient++
		}
	}
	for _, p := range prev {
		if !curSet[p] {
			d.Displaced++
		}
	}

	prevBest, curBest := prev[len(prev)-1].Perf, cur[len(cur)-1].Perf
	if prevBest > 0 {
		d.BestPerfGain = curBest/prevBest - 1
	}
	prevMinE, curMinE := minEnergy(prev), minEnergy(cur)
	if prevMinE > 0 {
		d.MinEnergyDrop = 1 - curMinE/prevMinE
	}

	lo := prev[0].Perf
	if cur[0].Perf > lo {
		lo = cur[0].Perf
	}
	hi := prevBest
	if curBest < hi {
		hi = curBest
	}
	if lo < hi {
		d.OverlapLo, d.OverlapHi = lo, hi
		var sum float64
		var n int
		for i := 0; i < driftSamples; i++ {
			x := lo + (hi-lo)*float64(i)/float64(driftSamples-1)
			pe := interpEnergy(prev, x)
			ce := interpEnergy(cur, x)
			if pe > 0 {
				sum += (pe - ce) / pe
				n++
			}
		}
		if n > 0 {
			d.EnergyReductionAtPerf = sum / float64(n)
		}
	}
	return d
}

func minEnergy(front []pareto.Point) float64 {
	m := front[0].Energy
	for _, p := range front {
		if p.Energy < m {
			m = p.Energy
		}
	}
	return m
}

// interpEnergy evaluates the frontier's energy at performance x by
// piecewise-linear interpolation over the efficient points, clamped to
// the frontier's performance range. Unlike pareto.FitCurve it needs no
// minimum point count, so it stays defined for sparse early
// generations.
func interpEnergy(front []pareto.Point, x float64) float64 {
	if x <= front[0].Perf {
		return front[0].Energy
	}
	last := front[len(front)-1]
	if x >= last.Perf {
		return last.Energy
	}
	for i := 1; i < len(front); i++ {
		a, b := front[i-1], front[i]
		if x > b.Perf {
			continue
		}
		if b.Perf == a.Perf {
			return b.Energy
		}
		t := (x - a.Perf) / (b.Perf - a.Perf)
		return a.Energy + t*(b.Energy-a.Energy)
	}
	return last.Energy
}

// WriteTable renders the report as an aligned text table, one line per
// generation, for the powerperf trend CLI.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-6s %-8s %-10s %-10s %-8s %s\n",
		"node", "cfgs", "frontier", "best perf", "min energy", "swing", "drift (new/out, dE@perf)")
	for _, g := range r.Generations {
		drift := "-"
		if g.Drift != nil {
			drift = fmt.Sprintf("+%d/-%d, %+.1f%%", g.Drift.NewEfficient, g.Drift.Displaced,
				100*g.Drift.EnergyReductionAtPerf)
		}
		fmt.Fprintf(w, "%-8s %-6d %-8d %-10.3f %-10.3f %-8s %s\n",
			fmt.Sprintf("%d nm", g.NodeNM), len(g.Points), len(g.Frontier),
			g.BestPerf, g.MinEnergy, fmt.Sprintf("%.0f%%", 100*g.PowerSwing), drift)
	}
	if len(r.Skipped) > 0 {
		fmt.Fprintf(w, "skipped %d incomplete configuration(s)\n", len(r.Skipped))
	}
}
