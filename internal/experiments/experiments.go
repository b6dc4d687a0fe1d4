// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 2-5, Figures 1-12) on top of the measurement
// harness. Each generator returns a typed result carrying exactly the
// series the paper plots, so the report package can render them and the
// benchmark suite can regenerate them one by one.
package experiments

import (
	"errors"
	"fmt"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/workload"
)

// Context carries the measurement source and the normalization
// reference. All experiments drawing from one Context share its
// measurements, the way the paper's analyses all draw on one dataset: a
// local harness's memo behind NewContext, the daemon's cell cache
// behind powerperfd.
type Context struct {
	Measure harness.MeasureFunc
	Ref     *harness.Reference
}

// NewContext builds a harness (calibrating the sensor rig) and measures
// the normalization reference.
func NewContext(seed int64) (*Context, error) {
	h, err := harness.New(seed)
	if err != nil {
		return nil, err
	}
	ref, err := h.Reference()
	if err != nil {
		return nil, err
	}
	return &Context{Measure: h.Measure, Ref: ref}, nil
}

// measureConfig aggregates one configuration over all four groups.
func (c *Context) measureConfig(cp proc.ConfiguredProcessor) (*harness.ConfigResult, error) {
	return harness.AggregateConfig(cp, c.Measure, c.Ref, nil)
}

// Ratio is a relative comparison of two configurations, as plotted in
// the feature-analysis bar charts: performance, power, and energy of the
// numerator configuration over the denominator.
type Ratio struct {
	Label  string
	Perf   float64
	Power  float64
	Energy float64
}

// GroupEnergy is one configuration comparison's energy ratio broken down
// by workload group, the (b) panel of each feature-analysis figure.
type GroupEnergy struct {
	Label  string
	Energy [4]float64 // indexed by workload.Group
}

// compare measures two configurations over all groups and returns the
// weighted-average ratios and the per-group energy breakdown.
func (c *Context) compare(label string, num, den proc.ConfiguredProcessor) (Ratio, GroupEnergy, error) {
	rn, err := c.measureConfig(num)
	if err != nil {
		return Ratio{}, GroupEnergy{}, err
	}
	rd, err := c.measureConfig(den)
	if err != nil {
		return Ratio{}, GroupEnergy{}, err
	}
	if rd.PerfW <= 0 || rd.WattsW <= 0 || rd.EnergyW <= 0 {
		return Ratio{}, GroupEnergy{}, fmt.Errorf("experiments: degenerate denominator for %s", label)
	}
	ratio := Ratio{
		Label:  label,
		Perf:   rn.PerfW / rd.PerfW,
		Power:  rn.WattsW / rd.WattsW,
		Energy: rn.EnergyW / rd.EnergyW,
	}
	ge := GroupEnergy{Label: label}
	for _, g := range workload.Groups() {
		ge.Energy[int(g)] = rn.Groups[int(g)].Energy / rd.Groups[int(g)].Energy
	}
	return ratio, ge, nil
}

// config builds and validates a configuration for a named processor.
func config(name string, cores, smt int, clock float64, turbo bool) (proc.ConfiguredProcessor, error) {
	p, err := proc.ByName(name)
	if err != nil {
		return proc.ConfiguredProcessor{}, err
	}
	cfg := proc.Config{Cores: cores, SMTWays: smt, ClockGHz: clock, Turbo: turbo}
	if err := p.Validate(cfg); err != nil {
		return proc.ConfiguredProcessor{}, err
	}
	return proc.ConfiguredProcessor{Proc: p, Config: cfg}, nil
}

// stock returns a processor's stock configuration.
func stock(name string) (proc.ConfiguredProcessor, error) {
	p, err := proc.ByName(name)
	if err != nil {
		return proc.ConfiguredProcessor{}, err
	}
	return proc.ConfiguredProcessor{Proc: p, Config: p.Stock()}, nil
}

// errNilContext guards the exported generators.
var errNilContext = errors.New("experiments: nil context")

func (c *Context) check() error {
	if c == nil || c.Measure == nil || c.Ref == nil {
		return errNilContext
	}
	return nil
}
