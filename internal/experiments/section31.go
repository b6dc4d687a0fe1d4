package experiments

import (
	"fmt"

	"repro/internal/proc"
	"repro/internal/workload"
)

// Section31Row is one single-threaded Java benchmark's counter-level
// drill-down into the JVM-induced parallelism of Workload Finding 1:
// what changes between one core and two, and why.
type Section31Row struct {
	Bench string
	// Speedup is the 2C1T over 1C1T execution-time ratio (Figure 6).
	Speedup float64
	// ServiceFraction is the share of retired instructions executed by
	// the runtime's service threads (the paper instruments HotSpot to
	// obtain this; antlr reaches ~0.5, most benchmarks 0.01-0.1).
	ServiceFraction float64
	// DTLBRatio is DTLB misses-per-kilo-instruction at one core over
	// two cores: db's is ~2.5x in the paper, because the co-resident
	// collector displaces the application's translation state.
	DTLBRatio float64
	// CPIOneCore and CPITwoCores show the cycle-level effect.
	CPIOneCore  float64
	CPITwoCores float64
}

// Section31Result is the counter drill-down behind Figure 6.
type Section31Result struct {
	Rows []Section31Row
}

// Section31 reproduces the Section 3.1 analysis: it measures the
// single-threaded Java benchmarks on the i7 at one and two cores (SMT
// and Turbo off) and reads the hardware counters alongside.
func Section31(c *Context) (*Section31Result, error) {
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
	res := &Section31Result{}
	for _, b := range workload.SingleThreadedJava() {
		m1, err := c.Measure(b, one)
		if err != nil {
			return nil, err
		}
		m2, err := c.Measure(b, two)
		if err != nil {
			return nil, err
		}
		d2 := m2.Counters.DTLBMPKI()
		if d2 == 0 {
			return nil, fmt.Errorf("experiments: %s: zero DTLB rate", b.Name)
		}
		res.Rows = append(res.Rows, Section31Row{
			Bench:           b.Name,
			Speedup:         m1.Seconds / m2.Seconds,
			ServiceFraction: m2.Counters.ServiceFraction(),
			DTLBRatio:       m1.Counters.DTLBMPKI() / d2,
			CPIOneCore:      m1.Counters.CPI(),
			CPITwoCores:     m2.Counters.CPI(),
		})
	}
	return res, nil
}
