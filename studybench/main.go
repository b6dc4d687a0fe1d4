// Command studybench is the repository's end-to-end benchmark. It runs
// the headline workload — one full study (the normalisation reference,
// measurements.csv and aggregates.csv over 45 configurations x 61
// benchmarks) through the default path, the work-stealing
// cluster.Scheduler over in-process service backends — and prints every
// metric as one JSON object on the last line of standard output.
//
//	bash studybench/run.sh --workload cold-study --seed 0 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with every wrapper off;
// --trace 1 turns the wrappers on and reports the per-layer metrics.
// README.md in this directory describes the workloads, the metrics and
// which metric a change to each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// options are the command-line inputs; the workload seed is the only
// source of the study seed and of the interactive cell sequence.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupOnly makes the process run the workload's set-up once, print
	// setupReady and exit: the timed set-ups after a run's first (see
	// bench.setup).
	setupOnly bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("studybench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "cold-study, warm-study or deployed-mix")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed: study seed and interactive cell sequence")
	fs.Float64Var(&o.seconds, "seconds", 30, "measuring window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "run the set-up once, print a line when it is done, and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want cold-study, warm-study or deployed-mix)", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	switch *traceFlag {
	case 0:
	case 1:
		o.trace = true
	default:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// processStart is when the process was started: the wrapper script
// exports the clock reading it took just before exec, so set-up time
// covers process start and package initialisation. Without it, the
// earliest clock reading this program can take stands in.
func processStart() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("STUDYBENCH_START_NS"), 10, 64); err == nil && ns > 0 {
		return time.Unix(0, ns)
	}
	return initTime
}

// initTime is read during package initialisation, before main runs.
var initTime = time.Now()

func main() {
	start := processStart()
	if len(os.Args) == 2 && os.Args[1] == calibrateFlag {
		runCalibration()
		return
	}
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "studybench:", err)
		}
		os.Exit(2)
	}
	// Access lines at the daemon's default info level would put one
	// stderr write per request into every measured study.
	telemetry.SetLogLevel(slog.LevelError)
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(opts, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		os.Exit(1)
	}
	if res == nil { // --setup-only
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
