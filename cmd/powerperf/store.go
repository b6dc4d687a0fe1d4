package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"repro/internal/store"
	"repro/internal/trend"
)

// openStore opens the study store read-only: the CLI must be safe to
// point at a live daemon's -store-dir, so it never truncates a torn
// tail or takes the write handle.
func openStore(dir string) *store.Store {
	if dir == "" {
		log.Fatal("missing -store-dir (the daemon's -store-dir directory)")
	}
	s, err := store.OpenReadOnly(dir)
	if err != nil {
		log.Fatalf("open store %s: %v", dir, err)
	}
	return s
}

// storeQueryFlags registers the shared row filters and returns a
// closure that materializes the store.Query after parsing.
func storeQueryFlags(fs *flag.FlagSet) func() store.Query {
	processor := fs.String("processor", "", `filter rows by processor name, e.g. "i7 (45)"`)
	benchmark := fs.String("benchmark", "", "filter rows by benchmark name")
	config := fs.String("config", "", `filter rows by configuration notation, e.g. "4C2T@2.7GHz TB"`)
	seed := fs.String("filter-seed", "", "only studies sealed under this seed")
	since := fs.String("since", "", "only studies sealed at or after this time (RFC 3339 or Unix seconds)")
	until := fs.String("until", "", "only studies sealed before this time (RFC 3339 or Unix seconds)")
	return func() store.Query {
		q := store.Query{Processor: *processor, Benchmark: *benchmark, Config: *config}
		if *seed != "" {
			n, err := strconv.ParseInt(*seed, 10, 64)
			if err != nil {
				log.Fatalf("bad -filter-seed %q", *seed)
			}
			q.Seed = &n
		}
		var err error
		if q.Since, err = parseCLITime(*since); err != nil {
			log.Fatal(err)
		}
		if q.Until, err = parseCLITime(*until); err != nil {
			log.Fatal(err)
		}
		return q
	}
}

func parseCLITime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0), nil
	}
	return time.Time{}, fmt.Errorf("bad time %q (want RFC 3339 or Unix seconds)", s)
}

// runQuery serves the `powerperf query` subcommand: inspect a study
// store offline — inventory, sealed studies, filtered rows, and the
// Section 2.6 aggregates recomputed from stored bits.
func runQuery(args []string) {
	fs := flag.NewFlagSet("powerperf query", flag.ExitOnError)
	dir := fs.String("store-dir", "", "study store directory (as given to powerperfd)")
	rows := fs.Bool("rows", false, "print matching measurement rows instead of the study list")
	aggregates := fs.Bool("aggregates", false, "aggregate the matching rows per Section 2.6")
	limit := fs.Int("limit", 50, "row cap for -rows (0 = unlimited)")
	asJSON := fs.Bool("json", false, "emit JSON instead of tables")
	query := storeQueryFlags(fs)
	_ = fs.Parse(args)
	if err := validateQueryFlags(*rows, *aggregates, *limit); err != nil {
		log.Print(err)
		os.Exit(2)
	}
	s := openStore(*dir)
	defer s.Close()
	q := query()

	switch {
	case *rows:
		recs, err := s.Rows(q, *limit)
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			printJSON(recs)
			return
		}
		fmt.Printf("%-16s %-6s %-24s %-14s %-22s %10s %10s %12s\n",
			"study", "seed", "sealed", "benchmark", "configuration", "seconds", "watts", "energy_j")
		for _, rec := range recs {
			fmt.Printf("%-16x %-6d %-24s %-14s %-22s %10.4f %10.4f %12.4f\n",
				rec.StudyID, rec.Seed, time.Unix(0, rec.Sealed).UTC().Format(time.RFC3339),
				rec.Row.Benchmark, rec.Row.Processor+" "+rec.Row.ConfigString(),
				rec.Row.Seconds, rec.Row.Watts, rec.Row.EnergyJ)
		}
		fmt.Printf("%d row(s)\n", len(recs))
	case *aggregates:
		d, err := s.Collect(q)
		if err != nil {
			log.Fatal(err)
		}
		res, skipped, err := d.Aggregate(nil)
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			printJSON(res)
			return
		}
		fmt.Printf("%-36s %12s %12s %12s\n", "configuration", "perf_norm", "watts", "energy_norm")
		for _, r := range res {
			fmt.Printf("%-36s %12.4f %12.4f %12.4f\n", r.CP.String(), r.PerfW, r.WattsW, r.EnergyW)
		}
		if len(skipped) > 0 {
			fmt.Printf("skipped %d incomplete configuration(s)\n", len(skipped))
		}
	default:
		st := s.Stats()
		if *asJSON {
			printJSON(struct {
				Store   store.Stats  `json:"store"`
				Studies []store.Meta `json:"studies"`
			}{st, s.Studies()})
			return
		}
		fmt.Printf("store: %d segment(s), %d row(s), %d bytes", st.Segments, st.Rows, st.Bytes)
		if st.TruncatedTail > 0 {
			fmt.Printf(" (ignoring a %d-byte unsealed tail)", st.TruncatedTail)
		}
		fmt.Println()
		fmt.Printf("%-16s %-6s %-24s %8s %12s\n", "study", "seed", "sealed", "rows", "bytes")
		for _, m := range s.Studies() {
			if !q.MatchMeta(m) {
				continue
			}
			fmt.Printf("%-16x %-6d %-24s %8d %12d\n",
				m.ID, m.Seed, m.SealedTime().UTC().Format(time.RFC3339), m.Rows, m.Bytes)
		}
	}
}

// validateQueryFlags rejects flag values the query would otherwise
// resolve silently: -rows would win over -aggregates, and a negative
// -limit would read as unlimited.
func validateQueryFlags(rows, aggregates bool, limit int) error {
	if rows && aggregates {
		return errors.New("-rows and -aggregates are exclusive")
	}
	if limit < 0 {
		return fmt.Errorf("-limit %d: want >= 0 (0 = unlimited)", limit)
	}
	return nil
}

// runTrend serves the `powerperf trend` subcommand: replay the stored
// studies across technology generations and print the Pareto-drift
// report.
func runTrend(args []string) {
	fs := flag.NewFlagSet("powerperf trend", flag.ExitOnError)
	dir := fs.String("store-dir", "", "study store directory (as given to powerperfd)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON instead of a table")
	query := storeQueryFlags(fs)
	_ = fs.Parse(args)
	s := openStore(*dir)
	defer s.Close()

	d, err := s.Collect(query())
	if err != nil {
		log.Fatal(err)
	}
	if d.Cells() == 0 {
		log.Fatal("no stored rows match the query")
	}
	rep, err := trend.Analyze(d, nil)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		printJSON(rep)
		return
	}
	fmt.Printf("replayed %d cell(s) from seed(s) %v across %d generation(s)\n\n",
		d.Cells(), d.Seeds(), len(rep.Generations))
	rep.WriteTable(os.Stdout)
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
