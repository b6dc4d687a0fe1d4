// Energy audit: pick the most energy-efficient hardware configuration
// for a specific deployment's workload mix.
//
// The scenario is the one the paper's Pareto analysis motivates: a team
// runs a managed, scalable service (think the DaCapo 9.12 server
// workloads) and wants to know which 45nm design point minimizes energy
// while meeting a performance floor. The answer differs sharply from the
// SPEC-only answer — Workload Finding 4: energy-efficient architecture
// design is very sensitive to workload.
package main

import (
	"fmt"
	"log"

	powerperf "repro"
	"repro/internal/pareto"
)

func main() {
	log.SetFlags(0)

	study, err := powerperf.NewStudy(42)
	if err != nil {
		log.Fatal(err)
	}

	// The deployment's performance floor, in reference units.
	const perfFloor = 2.0

	audit := func(g powerperf.Group) (best pareto.Point, frontier []pareto.Point, err error) {
		var points []pareto.Point
		for _, cp := range powerperf.ConfigSpace45nm() {
			res, err := study.MeasureConfig(cp)
			if err != nil {
				return pareto.Point{}, nil, err
			}
			gr := res.Groups[int(g)]
			points = append(points, pareto.Point{Label: cp.String(), Perf: gr.Perf, Energy: gr.Energy})
		}
		frontier = pareto.Frontier(points)
		found := false
		for _, p := range frontier {
			if p.Perf < perfFloor {
				continue
			}
			if !found || p.Energy < best.Energy {
				best, found = p, true
			}
		}
		if !found {
			return pareto.Point{}, frontier, fmt.Errorf("no configuration meets perf >= %.1f", perfFloor)
		}
		return best, frontier, nil
	}

	for _, g := range []powerperf.Group{powerperf.JavaScalable, powerperf.NativeNonScalable} {
		best, frontier, err := audit(g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Workload: %s (perf floor %.1fx reference)\n", g, perfFloor)
		fmt.Printf("  Pareto frontier (%d of 29 configurations):\n", len(frontier))
		for _, p := range frontier {
			marker := "  "
			if p == best {
				marker = "->"
			}
			fmt.Printf("  %s %-28s perf %5.2f  energy %.3f\n", marker, p.Label, p.Perf, p.Energy)
		}
		fmt.Printf("  recommended: %s\n\n", best.Label)
	}

	fmt.Println("Note how the frontiers differ: tuning a design on SPEC CPU alone")
	fmt.Println("(Native Non-scalable) would misconfigure the managed service.")
}
