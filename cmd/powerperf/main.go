// Command powerperf regenerates the paper's tables and figures from the
// simulated measurement stack.
//
// Usage:
//
//	powerperf [-seed N] [-csv DIR] [-full-table2] [artifact ...]
//	powerperf query [-store-dir DIR] [-rows [-limit N]|-aggregates] [-processor P] [-benchmark B] [-json]
//	powerperf trend [-store-dir DIR] [-filter-seed N] [-json]
//	powerperf slo [-daemon URL] [-json]
//
// Artifacts are table2, table3, table4, table5, fig1 .. fig12, or "all"
// (the default). With -csv, each artifact's data is also written as
// DIR/<artifact>.csv, mirroring the paper's companion dataset.
//
// The query subcommand inspects a powerperfd -store-dir study store
// offline (read-only, safe against a live daemon): the study inventory,
// filtered measurement rows, or the Section 2.6 aggregates recomputed
// from the stored bits. The trend subcommand replays the stored studies
// across the fleet's technology generations and reports how the
// measured energy/performance Pareto frontier drifted.
//
// The slo subcommand fetches a live daemon's /v1/sloz snapshot and
// renders its error budgets, burn rates, and breach exemplars (with
// ready-to-paste trace URLs) as a terminal table.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	powerperf "repro"
	"repro/internal/profiling"
	"repro/internal/report"
)

var artifactOrder = []string{
	"table2", "table3", "table4", "table5",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"section31", "jvms", "meters", "kernelbug", "heapsweep", "scaling", "breakdown", "findings",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("powerperf: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "query":
			runQuery(os.Args[2:])
			return
		case "trend":
			runTrend(os.Args[2:])
			return
		case "slo":
			runSlo(os.Args[2:])
			return
		}
	}
	seed := flag.Int64("seed", 42, "study seed; the same seed reproduces every number")
	csvDir := flag.String("csv", "", "also write each artifact's data as CSV into this directory")
	fullT2 := flag.Bool("full-table2", false, "aggregate Table 2 over all 45 configurations instead of the 8 stock ones")
	plot := flag.Bool("plot", false, "also render ASCII charts for figures that have a graphical form")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			log.Fatal(err)
		}
	}()

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = artifactOrder
	}

	study, err := powerperf.NewStudy(*seed)
	if err != nil {
		log.Fatal(err)
	}
	r := &renderer{study: study, csvDir: *csvDir, fullT2: *fullT2}
	for _, name := range want {
		gen, ok := r.generators()[strings.ToLower(name)]
		if !ok {
			log.Fatalf("unknown artifact %q (want one of %s, or all)", name, strings.Join(artifactOrder, " "))
		}
		tbl, title, err := gen()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("\n%s\n\n", title)
		if err := tbl.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, tbl); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		if *plot {
			if p, ok := r.plotters()[strings.ToLower(name)]; ok {
				if err := p(); err != nil {
					log.Fatalf("%s plot: %v", name, err)
				}
			}
		}
	}
}

func writeCSV(dir, name string, tbl *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
