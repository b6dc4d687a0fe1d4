// Command paretoscan explores the measured energy/performance tradeoff
// space of Section 4.2: it evaluates the 29 45nm configurations (or the
// full 45-configuration space with -all), prints every point, marks the
// Pareto-efficient ones, and sketches the frontier as an ASCII scatter
// plot, per workload group or for the equally weighted average.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	powerperf "repro"
	"repro/internal/pareto"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paretoscan: ")
	seed := flag.Int64("seed", 42, "study seed")
	groupName := flag.String("group", "average", "workload selector: average, nn, ns, jn, js")
	all := flag.Bool("all", false, "scan all 45 configurations, not just the 45nm space")
	metric := flag.String("metric", "energy", "scalar objective to rank by: energy, edp, ed2p")
	flag.Parse()

	objective, group, err := validateFlags(*metric, *groupName, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "paretoscan:", err)
		os.Exit(2)
	}
	label := "Average (four groups, equally weighted)"
	if group != nil {
		label = group.String()
	}

	study, err := powerperf.NewStudy(*seed)
	if err != nil {
		log.Fatal(err)
	}
	space := powerperf.ConfigSpace45nm()
	if *all {
		space = powerperf.ConfigSpace()
	}

	points := make([]pareto.Point, 0, len(space))
	for _, cp := range space {
		res, err := study.MeasureConfig(cp)
		if err != nil {
			log.Fatal(err)
		}
		perf, energy := res.PerfW, res.EnergyW
		if group != nil {
			g := res.Groups[int(*group)]
			perf, energy = g.Perf, g.Energy
		}
		points = append(points, pareto.Point{Label: cp.String(), Perf: perf, Energy: energy})
	}

	front := pareto.Frontier(points)
	efficient := make(map[pareto.Point]bool, len(front))
	for _, p := range front {
		efficient[p] = true
	}

	fmt.Printf("Energy / performance space: %s (%d configurations)\n\n", label, len(points))
	tbl := report.NewTable("Configuration", "Perf/ref", "Energy/ref", "Pareto")
	for _, p := range points {
		mark := ""
		if efficient[p] {
			mark = "x"
		}
		tbl.AddRow(p.Label, fmt.Sprintf("%.2f", p.Perf), fmt.Sprintf("%.3f", p.Energy), mark)
	}
	if err := tbl.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	plot := &report.Scatter{
		Title:  "\nPareto frontier ('*' efficient, '.' dominated)",
		XLabel: "performance / reference",
		YLabel: "energy / reference",
		Width:  72, Height: 22,
	}
	for _, p := range points {
		mark := '.'
		if efficient[p] {
			mark = '*'
		}
		plot.Add(p.Perf, p.Energy, mark)
	}
	if err := plot.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if curve, err := pareto.FitCurve(points, 2); err == nil {
		fmt.Printf("\nfitted frontier: degree %d polynomial, R2 %.3f over perf [%.2f, %.2f]\n",
			curve.Fit.Degree(), curve.Fit.R2, curve.MinX, curve.MaxX)
	}

	// Scalar ranking under the chosen objective: where the paper's
	// frontier keeps every tradeoff, a single metric picks winners —
	// and EDP/ED2P pick very different ones than energy.
	ranked, scores, err := objective.Rank(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop 5 by %s:\n", objective)
	for i := 0; i < 5 && i < len(ranked); i++ {
		fmt.Printf("  %d. %-28s %s %.4f (perf %.2f, energy %.3f)\n",
			i+1, ranked[i].Label, objective, scores[i], ranked[i].Perf, ranked[i].Energy)
	}
}

// validateFlags checks the flags before any harness is built and
// returns the objective -metric names and the workload group -group
// names, nil for the four-group average. paretoscan takes no
// arguments, so a stray one (a flag missing its dash, say) is an error
// rather than silently ignored.
func validateFlags(metric, group string, args []string) (pareto.Objective, *workload.Group, error) {
	objectives := map[string]pareto.Objective{"energy": pareto.Energy, "edp": pareto.EDP, "ed2p": pareto.ED2P}
	objective, ok := objectives[metric]
	if !ok {
		return 0, nil, fmt.Errorf("-metric: unknown metric %q (want energy, edp, ed2p)", metric)
	}
	groups := map[string]workload.Group{"nn": workload.NativeNonScalable, "ns": workload.NativeScalable,
		"jn": workload.JavaNonScalable, "js": workload.JavaScalable}
	var g *workload.Group
	if group != "average" {
		sel, ok := groups[group]
		if !ok {
			return 0, nil, fmt.Errorf("-group: unknown group %q (want average, nn, ns, jn, js)", group)
		}
		g = &sel
	}
	if len(args) > 0 {
		return 0, nil, fmt.Errorf("unexpected arguments %q: paretoscan takes flags only", args)
	}
	return objective, g, nil
}
