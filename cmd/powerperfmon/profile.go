package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/profiling"
	"repro/internal/telemetry"
)

// runProfile implements `powerperfmon profile`: harvest every backend's
// /debug/pprof endpoints twice (the pair is what makes allocation
// deltas and CPU busy fractions computable), then print a per-backend
// report — CPU busy, alloc rate, heap in use, and the top allocation
// regressors between the two captures — plus the fleet-merged alloc
// delta. -json emits the same report for scripts.
func runProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	backends := fs.String("backends", "", "comma-separated backend base URLs (required)")
	seconds := fs.Int("seconds", 5, "CPU sampling window per harvest, in seconds")
	gap := fs.Duration("gap", 2*time.Second, "pause between the two harvests (the alloc-delta window)")
	top := fs.Int("top", 5, "entries per top-N list")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	fs.Parse(args)

	var targets []string
	for _, t := range strings.Split(*backends, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "powerperfmon profile: -backends is required (comma-separated base URLs)")
		os.Exit(2)
	}

	ua := "powerperfmon/" + telemetry.BuildInfo().UserAgentToken()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "harvest 1/2 (%ds CPU window per backend)...\n", *seconds)
	first := profiling.Capture(ctx, targets, *seconds, ua)
	select {
	case <-time.After(*gap):
	case <-ctx.Done():
		return
	}
	fmt.Fprintf(os.Stderr, "harvest 2/2...\n")
	second := profiling.Capture(ctx, targets, *seconds, ua)

	reports, merged := profiling.Compare(targets, first, second, *top)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(struct {
			Backends        []profiling.BackendReport `json:"backends"`
			FleetAllocDelta []profiling.Entry         `json:"fleet_alloc_delta,omitempty"`
		}{reports, merged}); err != nil {
			fmt.Fprintln(os.Stderr, "powerperfmon profile:", err)
			os.Exit(1)
		}
		return
	}

	for _, r := range reports {
		fmt.Printf("%s\n", r.Backend)
		if r.Err != "" {
			fmt.Printf("  ! %s\n", r.Err)
			continue
		}
		fmt.Printf("  cpu busy    %6.1f%%\n", r.CPUBusyFrac*100)
		fmt.Printf("  alloc rate  %8.2f MB/s\n", r.AllocPerSec/1e6)
		fmt.Printf("  heap inuse  %8.1f MB\n", float64(r.HeapInuse)/1e6)
		if len(r.TopCPU) > 0 {
			fmt.Println("  top cpu:")
			for _, e := range r.TopCPU {
				fmt.Printf("    %8.3fs  %s\n", float64(e.Value)/1e9, e.Name)
			}
		}
		if len(r.TopAllocDiff) > 0 {
			fmt.Println("  top alloc delta:")
			for _, e := range r.TopAllocDiff {
				fmt.Printf("    %+10.2f MB  %s\n", float64(e.Value)/1e6, e.Name)
			}
		}
	}
	if len(merged) > 0 {
		fmt.Println("fleet-merged alloc delta:")
		for _, e := range merged {
			fmt.Printf("  %+10.2f MB  %s\n", float64(e.Value)/1e6, e.Name)
		}
	}
}
