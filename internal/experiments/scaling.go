package experiments

import (
	"repro/internal/proc"
	"repro/internal/scaling"
)

// ScalingRow compares one measured die shrink with the scaling
// frameworks' predictions over the same nodes.
type ScalingRow struct {
	Measured scaling.Transition
	// VsDennard, VsPostDennard, and VsITRS are measured/predicted
	// multiplicative errors (1.0 = the framework nailed it).
	VsDennard     scaling.Compare
	VsPostDennard scaling.Compare
	VsITRS        scaling.Compare
}

// ScalingResult is the technology-scaling analysis behind Architecture
// Findings 4 and 5 and the Section 4.1 Pentium 4 projection.
type ScalingResult struct {
	Rows []ScalingRow
	// P4Projected is the Section 4.1 thought experiment: the Pentium 4
	// design shrunk from 130 nm to 32 nm under the measured per-
	// generation scaling ("reduce power four fold and increase
	// performance two fold").
	P4Projected scaling.Transition
}

// ScalingAnalysis measures both family die shrinks at stock clocks and
// compares them with Dennard, post-Dennard, and ITRS scaling.
func ScalingAnalysis(c *Context) (*ScalingResult, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	type pair struct {
		label    string
		oldName  string
		newName  string
		from, to scaling.Node
		oldCP    func() (proc.ConfiguredProcessor, error)
		newCP    func() (proc.ConfiguredProcessor, error)
	}
	pairs := []pair{
		{
			label: "Core 65->45nm", from: scaling.N65, to: scaling.N45,
			oldCP: func() (proc.ConfiguredProcessor, error) { return stock(proc.Core2D65Name) },
			newCP: func() (proc.ConfiguredProcessor, error) { return stock(proc.Core2D45Name) },
		},
		{
			label: "Nehalem 45->32nm", from: scaling.N45, to: scaling.N32,
			// The i7 limited to the i5's 2C2T, per Figure 8.
			oldCP: func() (proc.ConfiguredProcessor, error) {
				return config(proc.I7Name, 2, 2, 2.67, true)
			},
			newCP: func() (proc.ConfiguredProcessor, error) { return stock(proc.I5Name) },
		},
	}
	res := &ScalingResult{}
	var measuredPower, measuredFreq []float64
	for _, pr := range pairs {
		oldCP, err := pr.oldCP()
		if err != nil {
			return nil, err
		}
		newCP, err := pr.newCP()
		if err != nil {
			return nil, err
		}
		oldR, err := c.measureConfig(oldCP)
		if err != nil {
			return nil, err
		}
		newR, err := c.measureConfig(newCP)
		if err != nil {
			return nil, err
		}
		m := scaling.Transition{
			Label:     pr.label,
			From:      pr.from,
			To:        pr.to,
			Frequency: newCP.Config.ClockGHz / oldCP.Config.ClockGHz,
			Power:     newR.WattsW / oldR.WattsW,
			Perf:      newR.PerfW / oldR.PerfW,
		}
		row := ScalingRow{Measured: m}
		for _, fw := range []struct {
			f     scaling.Factors
			label string
			dst   *scaling.Compare
		}{
			{scaling.Dennard(), "Dennard", &row.VsDennard},
			{scaling.PostDennard(), "post-Dennard", &row.VsPostDennard},
			{scaling.ITRS4532(), "ITRS", &row.VsITRS},
		} {
			pred, err := scaling.Project(fw.label, fw.f, pr.from, pr.to)
			if err != nil {
				return nil, err
			}
			cmp, err := m.Against(pred)
			if err != nil {
				return nil, err
			}
			*fw.dst = cmp
		}
		res.Rows = append(res.Rows, row)
		measuredPower = append(measuredPower, m.Power)
		measuredFreq = append(measuredFreq, m.Frequency)
	}

	// Section 4.1: apply the measured per-generation scaling (the mean
	// of the two observed shrinks, at matched complexity) to the
	// Pentium 4 across the four generations from 130 nm to 32 nm.
	perGen := scaling.Factors{
		Frequency: (measuredFreq[0] + measuredFreq[1]) / 2,
		Power:     (measuredPower[0] + measuredPower[1]) / 2,
		Area:      0.5,
	}
	p4, err := scaling.Project("P4 @ 32nm (projected)", perGen, scaling.N130, scaling.N32)
	if err != nil {
		return nil, err
	}
	res.P4Projected = p4
	return res, nil
}
