// Command calibrate reproduces Table 4 (average performance and power per
// processor and workload group) and prints it next to the paper's
// published values, as a model-calibration aid and a quick smoke test of
// the whole pipeline.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
)

// paper holds Table 4's published weighted averages for comparison.
var paper = map[string][2]float64{ // name -> {perfW, wattsW}
	proc.Pentium4Name: {0.82, 44.1},
	proc.Core2D65Name: {2.04, 26.4},
	proc.Core2Q65Name: {2.70, 58.1},
	proc.I7Name:       {4.46, 47.0},
	proc.Atom45Name:   {0.52, 2.4},
	proc.Core2D45Name: {2.54, 20.8},
	proc.AtomD45Name:  {0.74, 4.7},
	proc.I5Name:       {3.80, 25.7},
}

var paperGroups = map[string][8]float64{ // perf NN,NS,JN,JS then watts NN,NS,JN,JS
	proc.Pentium4Name: {0.91, 0.79, 0.80, 0.75, 42.1, 43.5, 45.1, 45.7},
	proc.Core2D65Name: {2.02, 2.10, 1.99, 2.04, 24.3, 26.6, 26.2, 28.5},
	proc.Core2Q65Name: {2.04, 3.62, 2.04, 3.09, 50.7, 61.7, 55.3, 64.6},
	proc.I7Name:       {3.11, 6.25, 3.00, 5.49, 27.2, 60.4, 37.5, 62.8},
	proc.Atom45Name:   {0.49, 0.52, 0.53, 0.52, 2.3, 2.5, 2.3, 2.4},
	proc.Core2D45Name: {2.48, 2.76, 2.49, 2.44, 19.1, 21.1, 20.5, 22.6},
	proc.AtomD45Name:  {0.53, 0.96, 0.61, 0.86, 3.7, 5.3, 4.5, 5.1},
	proc.I5Name:       {3.31, 4.46, 3.18, 4.26, 19.6, 29.2, 24.7, 29.5},
}

func main() {
	log.SetFlags(0)
	h, err := harness.New(42)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := h.Reference()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %-6s  %7s %7s %7s %7s | %7s %7s\n",
		"Processor", "metric", "NN", "NS", "JN", "JS", "AvgW", "paper")
	for _, cp := range proc.StockConfigs() {
		res, err := h.MeasureConfig(cp, ref, nil)
		if err != nil {
			log.Fatal(err)
		}
		pg := paperGroups[cp.Proc.Name]
		pa := paper[cp.Proc.Name]
		fmt.Printf("%-16s perf   %7.2f %7.2f %7.2f %7.2f | %7.2f %7.2f\n",
			cp.Proc.Name,
			res.Groups[0].Perf, res.Groups[1].Perf, res.Groups[2].Perf, res.Groups[3].Perf,
			res.PerfW, pa[0])
		fmt.Printf("%-16s  paper %7.2f %7.2f %7.2f %7.2f\n", "",
			pg[0], pg[1], pg[2], pg[3])
		fmt.Printf("%-16s power  %7.1f %7.1f %7.1f %7.1f | %7.1f %7.1f\n",
			"",
			res.Groups[0].Watts, res.Groups[1].Watts, res.Groups[2].Watts, res.Groups[3].Watts,
			res.WattsW, pa[1])
		fmt.Printf("%-16s  paper %7.1f %7.1f %7.1f %7.1f   min %4.1f max %5.1f\n", "",
			pg[4], pg[5], pg[6], pg[7], res.WattsMin, res.WattsMax)
	}
	ctx := &experiments.Context{Measure: h.Measure, Ref: ref}
	printFigures(ctx)
	printPareto(ctx)
	_ = os.Stdout.Sync()
}
