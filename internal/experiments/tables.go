package experiments

import (
	"sort"

	"repro/internal/harness"
	"repro/internal/pareto"
	"repro/internal/proc"
	"repro/internal/workload"
)

// Table2Result reproduces Table 2: aggregate 95% confidence intervals for
// measured execution time and power per workload group, across the given
// configurations (the paper aggregates across all of its processor
// configurations).
type Table2Result struct {
	Table *harness.CITable
	// Configs is how many configurations were aggregated.
	Configs int
}

// Table2 regenerates Table 2. Passing nil configurations uses the eight
// stock processors; the full study passes proc.ConfigSpace().
func Table2(c *Context, cps []proc.ConfiguredProcessor) (*Table2Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if cps == nil {
		cps = proc.StockConfigs()
	}
	tbl, err := harness.ConfidenceTable(c.Measure, cps)
	if err != nil {
		return nil, err
	}
	return &Table2Result{Table: tbl, Configs: len(cps)}, nil
}

// Table3Row is one processor's specification row.
type Table3Row struct {
	Proc *proc.Processor
}

// Table3 reproduces the processor-specification table. It is static
// data, included so the full study regenerates every numbered artifact.
func Table3() []Table3Row {
	fleet := proc.Fleet()
	rows := make([]Table3Row, len(fleet))
	for i, p := range fleet {
		rows[i] = Table3Row{Proc: p}
	}
	return rows
}

// Table4Row is one processor's row of Table 4: normalized performance
// and average power per group with fleet-wide ranks.
type Table4Row struct {
	Result *harness.ConfigResult
	// PerfRank and PowerRank rank this processor's weighted average
	// among the fleet (1 = fastest / most power-hungry, as the paper's
	// small italics do).
	PerfRank  int
	PowerRank int
}

// Table4 regenerates Table 4 across the eight stock processors.
func Table4(c *Context) ([]Table4Row, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	stocks := proc.StockConfigs()
	rows := make([]Table4Row, len(stocks))
	for i, cp := range stocks {
		res, err := c.measureConfig(cp)
		if err != nil {
			return nil, err
		}
		rows[i] = Table4Row{Result: res}
	}
	rank(rows, func(r Table4Row) float64 { return r.Result.PerfW }, func(r *Table4Row, n int) { r.PerfRank = n })
	rank(rows, func(r Table4Row) float64 { return r.Result.WattsW }, func(r *Table4Row, n int) { r.PowerRank = n })
	return rows, nil
}

// rank assigns descending ranks (1 = highest value).
func rank(rows []Table4Row, key func(Table4Row) float64, set func(*Table4Row, int)) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key(rows[idx[a]]) > key(rows[idx[b]]) })
	for n, i := range idx {
		set(&rows[i], n+1)
	}
}

// Table5Result reproduces Table 5: the Pareto-efficient 45nm
// configurations per workload group and for the equally weighted
// average.
type Table5Result struct {
	// Efficient maps each selector ("Average" or a group name) to the
	// labels of its Pareto-efficient configurations.
	Efficient map[string][]string
	// All lists every 45nm configuration label considered.
	All []string
	// Points holds the underlying tradeoff points per selector, for
	// Figure 12's curves.
	Points map[string][]pareto.Point
}

// Table5 regenerates the Pareto analysis over the 29 configurations of
// the four 45nm processors (Section 4.2).
func Table5(c *Context) (*Table5Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	cps := proc.ConfigSpace45nm()
	res := &Table5Result{
		Efficient: make(map[string][]string),
		Points:    make(map[string][]pareto.Point),
	}
	selectors := []string{"Average"}
	for _, g := range workload.Groups() {
		selectors = append(selectors, g.String())
	}
	for _, cp := range cps {
		res.All = append(res.All, cp.String())
		cr, err := c.measureConfig(cp)
		if err != nil {
			return nil, err
		}
		res.Points["Average"] = append(res.Points["Average"], pareto.Point{
			Label: cp.String(), Perf: cr.PerfW, Energy: cr.EnergyW,
		})
		for _, g := range workload.Groups() {
			gr := cr.Groups[int(g)]
			res.Points[g.String()] = append(res.Points[g.String()], pareto.Point{
				Label: cp.String(), Perf: gr.Perf, Energy: gr.Energy,
			})
		}
	}
	for _, sel := range selectors {
		for _, p := range pareto.Frontier(res.Points[sel]) {
			res.Efficient[sel] = append(res.Efficient[sel], p.Label)
		}
	}
	return res, nil
}
