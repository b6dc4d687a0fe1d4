package main

import (
	"fmt"
	"os"

	powerperf "repro"
	"repro/internal/experiments"
	"repro/internal/pareto"
	"repro/internal/report"
)

// plotters render chart views of artifacts that have a natural graphical
// form (enabled with -plot): bar charts for the feature-analysis
// figures, scatter plots for the distribution and historical figures.
func (r *renderer) plotters() map[string]func() error {
	return map[string]func() error{
		"fig2":  r.plotFig2,
		"fig3":  r.plotFig3,
		"fig4":  func() error { return r.plotFeature(r.study.Figure4, "Figure 4: CMP 2C/1C") },
		"fig5":  func() error { return r.plotFeature(r.study.Figure5, "Figure 5: SMT 1C2T/1C1T") },
		"fig11": r.plotFig11,
		"fig12": r.plotFig12,
	}
}

// plotFeature renders one feature-analysis result as grouped bars.
func (r *renderer) plotFeature(gen func() (*experiments.FeatureResult, error), title string) error {
	res, err := gen()
	if err != nil {
		return err
	}
	chart := &report.BarChart{Title: "\n" + title, Baseline: 1.0, Width: 44}
	labels := make([]string, len(res.Ratios))
	perfs := make([]float64, len(res.Ratios))
	powers := make([]float64, len(res.Ratios))
	energies := make([]float64, len(res.Ratios))
	for i, rt := range res.Ratios {
		labels[i] = rt.Label
		perfs[i] = rt.Perf
		powers[i] = rt.Power
		energies[i] = rt.Energy
	}
	chart.SetLabels(labels...)
	chart.AddSeries("perf", perfs...)
	chart.AddSeries("power", powers...)
	chart.AddSeries("energy", energies...)
	return chart.Write(os.Stdout)
}

func (r *renderer) plotFig2() error {
	res, err := r.study.Figure2()
	if err != nil {
		return err
	}
	plot := &report.Scatter{
		Title:  "\nFigure 2: measured power vs TDP (log/log; letter = processor)",
		XLabel: "TDP W", YLabel: "measured W",
		LogX: true, LogY: true, Width: 70, Height: 22,
	}
	for _, p := range res.Points {
		plot.Add(p.TDP, p.Watts, markFor(p.Proc))
	}
	if err := plot.Write(os.Stdout); err != nil {
		return err
	}
	return legend()
}

func (r *renderer) plotFig3() error {
	res, err := r.study.Figure3()
	if err != nil {
		return err
	}
	plot := &report.Scatter{
		Title:  "\nFigure 3: benchmark power/performance on the i7 (N=native, J=java; lower=non-scalable)",
		XLabel: "performance / reference", YLabel: "watts",
		Width: 70, Height: 22,
	}
	for _, p := range res.Points {
		mark := 'n'
		if p.Group.Managed() {
			mark = 'j'
		}
		if p.Group.Scalable() {
			mark = mark - 'a' + 'A' // uppercase for scalable
		}
		plot.Add(p.Perf, p.Watts, mark)
	}
	return plot.Write(os.Stdout)
}

func (r *renderer) plotFig11() error {
	res, err := r.study.Figure11()
	if err != nil {
		return err
	}
	plot := &report.Scatter{
		Title:  "\nFigure 11: power vs performance, stock processors (log/log)",
		XLabel: "performance / reference", YLabel: "watts",
		LogX: true, LogY: true, Width: 70, Height: 20,
	}
	for _, p := range res.Points {
		plot.Add(p.Perf, p.Watts, markFor(p.Proc))
	}
	if err := plot.Write(os.Stdout); err != nil {
		return err
	}
	return legend()
}

func (r *renderer) plotFig12() error {
	res, err := r.study.Figure12()
	if err != nil {
		return err
	}
	plot := &report.Scatter{
		Title:  "\nFigure 12: 45nm energy/performance space ('*' Average frontier, '.' dominated)",
		XLabel: "group performance / reference", YLabel: "normalized energy",
		Width: 70, Height: 22,
	}
	points := res.Table.Points["Average"]
	front := map[pareto.Point]bool{}
	for _, p := range pareto.Frontier(points) {
		front[p] = true
	}
	for _, p := range points {
		mark := '.'
		if front[p] {
			mark = '*'
		}
		plot.Add(p.Perf, p.Energy, mark)
	}
	return plot.Write(os.Stdout)
}

// markFor assigns a stable letter per processor for scatter plots.
func markFor(proc string) rune {
	marks := map[string]rune{
		powerperf.Pentium4: 'P',
		powerperf.Core2D65: 'c',
		powerperf.Core2Q65: 'Q',
		powerperf.I7:       '7',
		powerperf.Atom45:   'a',
		powerperf.Core2D45: 'C',
		powerperf.AtomD45:  'd',
		powerperf.I5:       '5',
	}
	if m, ok := marks[proc]; ok {
		return m
	}
	return '?'
}

func legend() error {
	_, err := fmt.Println("          P=Pentium4 c=C2D(65) Q=C2Q(65) 7=i7 a=Atom C=C2D(45) d=AtomD 5=i5")
	return err
}
