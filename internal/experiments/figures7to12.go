package experiments

import (
	"math"

	"repro/internal/pareto"
	"repro/internal/proc"
	"repro/internal/workload"
)

// ClockPoint is one DVFS operating point's measured aggregate.
type ClockPoint struct {
	ClockGHz float64
	Perf     float64
	Watts    float64
	Energy   float64
	// PerGroup carries the per-group absolute power and performance for
	// Figure 7(d).
	PerGroup [4]struct{ Perf, Watts float64 }
}

// Figure7Series is one processor's clock-scaling sweep.
type Figure7Series struct {
	Proc   string
	Points []ClockPoint // ascending clock

	// PerDoubling expresses the percentage change in performance,
	// power, and energy per doubling of clock frequency over the swept
	// range, the normalization Figure 7(a) uses.
	PerDoublingPerf   float64
	PerDoublingPower  float64
	PerDoublingEnergy float64

	// GroupEnergyPerDoubling is Figure 7(b)'s per-group breakdown.
	GroupEnergyPerDoubling [4]float64
}

// Figure7Result reproduces Figure 7: clock scaling on the i7 (45),
// Core 2D (45), and i5 (32), Turbo Boost disabled.
type Figure7Result struct {
	Series []Figure7Series
}

// figure7Clocks are the DVFS points swept per processor.
var figure7Clocks = map[string][]float64{
	proc.I7Name:       {1.60, 2.13, 2.40, 2.67},
	proc.Core2D45Name: {1.6, 2.4, 3.1},
	proc.I5Name:       {1.20, 2.00, 2.66, 3.46},
}

// Figure7 regenerates Figure 7.
func Figure7(c *Context) (*Figure7Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &Figure7Result{}
	for _, name := range []string{proc.I7Name, proc.Core2D45Name, proc.I5Name} {
		p, err := proc.ByName(name)
		if err != nil {
			return nil, err
		}
		series := Figure7Series{Proc: name}
		for _, ghz := range figure7Clocks[name] {
			cp := proc.ConfiguredProcessor{Proc: p, Config: proc.Config{
				Cores: p.Spec.Cores, SMTWays: p.Spec.SMTWays, ClockGHz: ghz,
			}}
			cr, err := c.measureConfig(cp)
			if err != nil {
				return nil, err
			}
			pt := ClockPoint{ClockGHz: ghz, Perf: cr.PerfW, Watts: cr.WattsW, Energy: cr.EnergyW}
			for _, g := range workload.Groups() {
				gr := cr.Groups[int(g)]
				pt.PerGroup[int(g)] = struct{ Perf, Watts float64 }{gr.Perf, gr.Watts}
			}
			series.Points = append(series.Points, pt)
		}
		lo, hi := series.Points[0], series.Points[len(series.Points)-1]
		doublings := math.Log2(hi.ClockGHz / lo.ClockGHz)
		perDoubling := func(hiV, loV float64) float64 {
			return math.Pow(hiV/loV, 1/doublings) - 1
		}
		series.PerDoublingPerf = perDoubling(hi.Perf, lo.Perf)
		series.PerDoublingPower = perDoubling(hi.Watts, lo.Watts)
		series.PerDoublingEnergy = perDoubling(hi.Energy, lo.Energy)
		for g := range series.GroupEnergyPerDoubling {
			hiE := hi.PerGroup[g].Watts / hi.PerGroup[g].Perf
			loE := lo.PerGroup[g].Watts / lo.PerGroup[g].Perf
			series.GroupEnergyPerDoubling[g] = perDoubling(hiE, loE)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Figure8Result reproduces Figure 8: the die-shrink comparisons within
// the Core (65nm -> 45nm) and Nehalem (45nm -> 32nm) families, at native
// and matched clocks, plus the matched-clock per-group energy breakdown.
type Figure8Result struct {
	Native  []Ratio       // new/old at native clocks
	Matched []Ratio       // new/old at matched clocks
	Groups  []GroupEnergy // matched-clock energy per group
}

// Figure8 regenerates Figure 8. The i7 is limited to two cores to match
// the i5, and the matched clocks are 2.4 GHz (Core) and 2.66 GHz
// (Nehalem), per Section 3.4.
func Figure8(c *Context) (*Figure8Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &Figure8Result{}

	// Core family: Wolfdale over Conroe.
	oldCore, err := stock(proc.Core2D65Name)
	if err != nil {
		return nil, err
	}
	newCoreNative, err := stock(proc.Core2D45Name)
	if err != nil {
		return nil, err
	}
	r, _, err := c.compare("Core", newCoreNative, oldCore)
	if err != nil {
		return nil, err
	}
	res.Native = append(res.Native, r)

	newCoreMatched, err := config(proc.Core2D45Name, 2, 1, 2.4, false)
	if err != nil {
		return nil, err
	}
	r, g, err := c.compare("Core 2.4GHz", newCoreMatched, oldCore)
	if err != nil {
		return nil, err
	}
	res.Matched = append(res.Matched, r)
	res.Groups = append(res.Groups, g)

	// Nehalem family: Clarkdale over Bloomfield limited to 2C2T.
	oldNehalemNative, err := config(proc.I7Name, 2, 2, 2.67, true)
	if err != nil {
		return nil, err
	}
	newNehalemNative, err := stock(proc.I5Name)
	if err != nil {
		return nil, err
	}
	r, _, err = c.compare("Nehalem 2C2T", newNehalemNative, oldNehalemNative)
	if err != nil {
		return nil, err
	}
	res.Native = append(res.Native, r)

	oldNehalemMatched, err := config(proc.I7Name, 2, 2, 2.67, false)
	if err != nil {
		return nil, err
	}
	newNehalemMatched, err := config(proc.I5Name, 2, 2, 2.66, false)
	if err != nil {
		return nil, err
	}
	r, g, err = c.compare("Nehalem 2C2T 2.6GHz", newNehalemMatched, oldNehalemMatched)
	if err != nil {
		return nil, err
	}
	res.Matched = append(res.Matched, r)
	res.Groups = append(res.Groups, g)
	return res, nil
}

// Figure9Result reproduces Figure 9: gross microarchitecture changes,
// comparing Nehalem parts against the other three microarchitectures at
// matched clock speed, core count, and hardware threads.
type Figure9Result struct {
	Ratios []Ratio
	Groups []GroupEnergy
}

// Figure9 regenerates Figure 9.
func Figure9(c *Context) (*Figure9Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	type cmp struct {
		label        string
		nName        string
		nCores, nSMT int
		nClock       float64
		oName        string
		oCores, oSMT int
		oClock       float64
	}
	cases := []cmp{
		// Bonnell: i7 matched to the Atom D510's 2C2T at ~1.7GHz.
		{"Bonnell: i7/AtomD", proc.I7Name, 2, 2, 1.7, proc.AtomD45Name, 2, 2, 1.7},
		// NetBurst: i7 matched to the Pentium 4's 1C2T at 2.4GHz.
		{"NetBurst: i7/Pentium4", proc.I7Name, 1, 2, 2.4, proc.Pentium4Name, 1, 2, 2.4},
		// Core at 45nm: i7 matched to the Wolfdale's 2C1T; clocks within
		// a step (2.67 vs 2.4 is the nearest shared DVFS point at 2.4).
		{"Core: i7/C2D(45)", proc.I7Name, 2, 1, 2.4, proc.Core2D45Name, 2, 1, 2.4},
		// Core across nodes: i5 matched to the Conroe's 2C1T at 2.4GHz.
		{"Core: i5/C2D(65)", proc.I5Name, 2, 1, 2.4, proc.Core2D65Name, 2, 1, 2.4},
	}
	res := &Figure9Result{}
	for _, cs := range cases {
		num, err := config(cs.nName, cs.nCores, cs.nSMT, cs.nClock, false)
		if err != nil {
			return nil, err
		}
		den, err := config(cs.oName, cs.oCores, cs.oSMT, cs.oClock, false)
		if err != nil {
			return nil, err
		}
		r, g, err := c.compare(cs.label, num, den)
		if err != nil {
			return nil, err
		}
		res.Ratios = append(res.Ratios, r)
		res.Groups = append(res.Groups, g)
	}
	return res, nil
}

// Figure10Result reproduces Figure 10: Turbo Boost enabled over disabled
// on the i7 (45) and i5 (32), in stock and single-context configurations.
type Figure10Result struct {
	Ratios []Ratio
	Groups []GroupEnergy
}

// Figure10 regenerates Figure 10.
func Figure10(c *Context) (*Figure10Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	type cmp struct {
		label      string
		name       string
		cores, smt int
		clock      float64
	}
	cases := []cmp{
		{"i7 (45) 4C2T", proc.I7Name, 4, 2, 2.67},
		{"i7 (45) 1C1T", proc.I7Name, 1, 1, 2.67},
		{"i5 (32) 2C2T", proc.I5Name, 2, 2, 3.46},
		{"i5 (32) 1C1T", proc.I5Name, 1, 1, 3.46},
	}
	res := &Figure10Result{}
	for _, cs := range cases {
		on, err := config(cs.name, cs.cores, cs.smt, cs.clock, true)
		if err != nil {
			return nil, err
		}
		off, err := config(cs.name, cs.cores, cs.smt, cs.clock, false)
		if err != nil {
			return nil, err
		}
		r, g, err := c.compare(cs.label, on, off)
		if err != nil {
			return nil, err
		}
		res.Ratios = append(res.Ratios, r)
		res.Groups = append(res.Groups, g)
	}
	return res, nil
}

// Figure11Point is one stock processor's position in the historical
// overview.
type Figure11Point struct {
	Proc  string
	Perf  float64
	Watts float64
	// Per-transistor views for Figure 11(b).
	PerfPerMTrans  float64
	WattsPerMTrans float64
}

// Figure11Result reproduces Figure 11: the historical power/performance
// overview and the per-transistor analysis.
type Figure11Result struct {
	Points []Figure11Point
}

// Figure11 regenerates Figure 11.
func Figure11(c *Context) (*Figure11Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &Figure11Result{}
	for _, cp := range proc.StockConfigs() {
		cr, err := c.measureConfig(cp)
		if err != nil {
			return nil, err
		}
		trans := cp.Proc.Spec.TransistorsM
		res.Points = append(res.Points, Figure11Point{
			Proc:           cp.Proc.Name,
			Perf:           cr.PerfW,
			Watts:          cr.WattsW,
			PerfPerMTrans:  cr.PerfW / trans,
			WattsPerMTrans: cr.WattsW / trans,
		})
	}
	return res, nil
}

// Figure12Result reproduces Figure 12: the energy/performance Pareto
// frontiers at 45nm, one fitted curve per workload group plus the
// average.
type Figure12Result struct {
	// Curves maps "Average" and each group name to its fitted frontier.
	Curves map[string]*pareto.Curve
	Table  *Table5Result
}

// Figure12 regenerates Figure 12 from the Table 5 analysis.
func Figure12(c *Context) (*Figure12Result, error) {
	t5, err := Table5(c)
	if err != nil {
		return nil, err
	}
	res := &Figure12Result{Curves: make(map[string]*pareto.Curve), Table: t5}
	for sel, pts := range t5.Points {
		curve, err := pareto.FitCurve(pts, 2)
		if err != nil {
			// A frontier with very few points falls back to degree 1.
			curve, err = pareto.FitCurve(pts, 1)
			if err != nil {
				return nil, err
			}
		}
		res.Curves[sel] = curve
	}
	return res, nil
}
