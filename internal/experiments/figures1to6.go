package experiments

import (
	"repro/internal/proc"
	"repro/internal/workload"
)

// ScalabilityPoint is one benchmark's speedup between two configurations.
type ScalabilityPoint struct {
	Bench   string
	Speedup float64
}

// Figure1Result reproduces Figure 1: scalability of the multithreaded
// Java benchmarks on the i7 (45), 4C2T over 1C1T.
type Figure1Result struct {
	Points []ScalabilityPoint // in the figure's order
}

// Figure1 regenerates Figure 1.
func Figure1(c *Context) (*Figure1Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	full, err := config(proc.I7Name, 4, 2, 2.67, false)
	if err != nil {
		return nil, err
	}
	single, err := config(proc.I7Name, 1, 1, 2.67, false)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{}
	for _, b := range workload.MultithreadedJava() {
		mf, err := c.Measure(b, full)
		if err != nil {
			return nil, err
		}
		ms, err := c.Measure(b, single)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalabilityPoint{
			Bench:   b.Name,
			Speedup: ms.Seconds / mf.Seconds,
		})
	}
	return res, nil
}

// PowerTDPPoint is one benchmark's measured power on one processor
// against that processor's TDP.
type PowerTDPPoint struct {
	Proc  string
	Bench string
	TDP   float64
	Watts float64
}

// Figure2Result reproduces Figure 2: measured benchmark power versus TDP
// for every stock processor.
type Figure2Result struct {
	Points []PowerTDPPoint
}

// Figure2 regenerates Figure 2.
func Figure2(c *Context) (*Figure2Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &Figure2Result{}
	for _, cp := range proc.StockConfigs() {
		for _, b := range workload.All() {
			m, err := c.Measure(b, cp)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, PowerTDPPoint{
				Proc:  cp.Proc.Name,
				Bench: b.Name,
				TDP:   cp.Proc.Spec.TDPWatts,
				Watts: m.Watts,
			})
		}
	}
	return res, nil
}

// PerfPowerPoint is one benchmark's normalized performance and power.
type PerfPowerPoint struct {
	Bench string
	Group workload.Group
	Perf  float64
	Watts float64
}

// Figure3Result reproduces Figure 3: the power/performance distribution
// of all 61 benchmarks on the stock i7 (45).
type Figure3Result struct {
	Points []PerfPowerPoint
}

// Figure3 regenerates Figure 3.
func Figure3(c *Context) (*Figure3Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	cp, err := stock(proc.I7Name)
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{}
	for _, b := range workload.All() {
		m, err := c.Measure(b, cp)
		if err != nil {
			return nil, err
		}
		n, err := c.Ref.Normalize(m)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, PerfPowerPoint{
			Bench: b.Name, Group: b.Group, Perf: n.Perf, Watts: n.Watts,
		})
	}
	return res, nil
}

// FeatureResult is the common shape of the feature-analysis figures:
// average ratios per comparison plus per-group energy breakdowns.
type FeatureResult struct {
	Ratios []Ratio
	Groups []GroupEnergy
}

// Figure4 regenerates Figure 4: the effect of enabling a second core
// (two cores over one, SMT and Turbo Boost disabled) on the i7 (45) and
// i5 (32).
func Figure4(c *Context) (*FeatureResult, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &FeatureResult{}
	cases := []struct {
		name  string
		clock float64
	}{
		{proc.I7Name, 2.67},
		{proc.I5Name, 3.46},
	}
	for _, cs := range cases {
		two, err := config(cs.name, 2, 1, cs.clock, false)
		if err != nil {
			return nil, err
		}
		one, err := config(cs.name, 1, 1, cs.clock, false)
		if err != nil {
			return nil, err
		}
		r, g, err := c.compare(cs.name, two, one)
		if err != nil {
			return nil, err
		}
		res.Ratios = append(res.Ratios, r)
		res.Groups = append(res.Groups, g)
	}
	return res, nil
}

// Figure5 regenerates Figure 5: two-way SMT on a single core (1C2T over
// 1C1T) for the four SMT-capable processors, Turbo Boost disabled.
func Figure5(c *Context) (*FeatureResult, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &FeatureResult{}
	cases := []struct {
		name  string
		clock float64
	}{
		{proc.Pentium4Name, 2.4},
		{proc.I7Name, 2.67},
		{proc.Atom45Name, 1.7},
		{proc.I5Name, 3.46},
	}
	for _, cs := range cases {
		smt, err := config(cs.name, 1, 2, cs.clock, false)
		if err != nil {
			return nil, err
		}
		single, err := config(cs.name, 1, 1, cs.clock, false)
		if err != nil {
			return nil, err
		}
		r, g, err := c.compare(cs.name, smt, single)
		if err != nil {
			return nil, err
		}
		res.Ratios = append(res.Ratios, r)
		res.Groups = append(res.Groups, g)
	}
	return res, nil
}

// Figure6Result reproduces Figure 6: the CMP effect on single-threaded
// Java (2C1T over 1C1T on the i7, SMT off) — the JVM-induced parallelism
// of Workload Finding 1.
type Figure6Result struct {
	Points []ScalabilityPoint
}

// Figure6 regenerates Figure 6.
func Figure6(c *Context) (*Figure6Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	two, err := config(proc.I7Name, 2, 1, 2.67, false)
	if err != nil {
		return nil, err
	}
	one, err := config(proc.I7Name, 1, 1, 2.67, false)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{}
	for _, b := range workload.SingleThreadedJava() {
		m2, err := c.Measure(b, two)
		if err != nil {
			return nil, err
		}
		m1, err := c.Measure(b, one)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalabilityPoint{
			Bench:   b.Name,
			Speedup: m1.Seconds / m2.Seconds,
		})
	}
	return res, nil
}
