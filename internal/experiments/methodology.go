package experiments

import (
	"repro/internal/governor"
	"repro/internal/meters"
	"repro/internal/proc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MeterRow is one processor's chip-versus-wall comparison: what a
// whole-system clamp ammeter would have reported for the same runs the
// paper measured at the processor rail (Section 5's methodological
// contrast with Isci & Martonosi and Le Sueur & Heiser).
type MeterRow struct {
	Proc string
	// ChipWatts is the paper-style on-chip average power.
	ChipWatts float64
	// WallWatts is the clamp-ammeter whole-system reading.
	WallWatts float64
	// ChipFraction is ChipWatts over WallWatts.
	ChipFraction float64
	// ChipSpread and WallSpread are (max-min)/min across benchmarks:
	// how much of the chip's benchmark sensitivity survives at the wall.
	ChipSpread float64
	WallSpread float64
}

// MeterComparisonResult quantifies why the paper measures at the rail.
type MeterComparisonResult struct {
	Rows []MeterRow
}

// MeterComparison runs every benchmark on every stock processor and
// reads both the chip rail and a simulated whole-system clamp ammeter.
func MeterComparison(c *Context) (*MeterComparisonResult, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	clamp := meters.ClampAmmeter{Sys: meters.DefaultSystem()}
	res := &MeterComparisonResult{}
	for _, cp := range proc.StockConfigs() {
		var chip, wall []float64
		for _, b := range workload.All() {
			m, err := c.Measure(b, cp)
			if err != nil {
				return nil, err
			}
			// Memory traffic from the measured counters.
			traffic := 0.0
			if m.Seconds > 0 {
				traffic = m.Counters.LLCMisses * 64 / m.Seconds / 1e9
			}
			w, err := clamp.SystemWatts(m.Watts, traffic)
			if err != nil {
				return nil, err
			}
			chip = append(chip, m.Watts)
			wall = append(wall, w)
		}
		row := MeterRow{
			Proc:      cp.Proc.Name,
			ChipWatts: stats.Mean(chip),
			WallWatts: stats.Mean(wall),
		}
		row.ChipFraction = row.ChipWatts / row.WallWatts
		row.ChipSpread = (stats.Max(chip) - stats.Min(chip)) / stats.Min(chip)
		row.WallSpread = (stats.Max(wall) - stats.Min(wall)) / stats.Min(wall)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// KernelBugResult is the Section 2.8 ablation: BIOS core disabling
// versus the buggy OS hotplug path, per multicore processor.
type KernelBugResult struct {
	Reports []governor.BugReport
}

// KernelBug evaluates both offlining methods on the fleet's multicore
// parts, reproducing the anomaly that pushed the paper to the BIOS.
func KernelBug(c *Context) (*KernelBugResult, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res := &KernelBugResult{}
	for _, p := range proc.Fleet() {
		if p.Spec.Cores < 2 {
			continue
		}
		r, err := governor.RunBugReport(p, 0.8, 0.7)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
	}
	return res, nil
}
