// Command powerperfmon watches a powerperfd fleet from the terminal:
// it runs the monitor's scrape federation loop against the named
// backends, evaluates the detector rules each sweep, and redraws a
// fleet summary — liveness, cache hit rate, queue pressure, fill
// latency, and every pending/firing/resolved alert.
//
// Usage:
//
//	powerperfmon -backends http://a:8722,http://b:8722 [-interval 5s]
//	             [-top 5] [-once] [-http :8723] [-log-level warn]
//	powerperfmon profile -backends URLS [-seconds 5] [-gap 2s] [-top 5] [-json]
//	powerperfmon trace -backends URLS [-trace ID] [-seed N] [-op NAME]
//	             [-min-ms X] [-top 10] [-json]
//
// -once runs a single sweep and prints the fleet snapshot as JSON to
// stdout (scripts and CI smoke tests consume this); otherwise the
// summary redraws in place every interval until interrupted. -http
// additionally serves GET /v1/alertz and GET /debug/dashboard from the
// same monitor, making the CLI a standalone monitoring sidecar.
//
// The profile subcommand harvests every backend's /debug/pprof
// endpoints twice and prints per-backend CPU busy, allocation rate,
// heap in use, and the top allocation regressors between the captures,
// plus the fleet-merged allocation delta.
//
// The trace subcommand harvests every backend's span retention,
// assembles cross-process traces, and prints critical-path stage
// shares, the slowest traces, and per-operation RED stats — or one
// trace's full waterfall with -trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/monitor"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		runProfile(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	interval := flag.Duration("interval", 5*time.Second, "scrape-and-evaluate interval")
	top := flag.Int("top", 5, "slowest cells to show per backend (0 = hide)")
	once := flag.Bool("once", false, "one sweep, JSON snapshot to stdout, exit")
	httpAddr := flag.String("http", "", "also serve /v1/alertz and /debug/dashboard on this address")
	logLevel := flag.String("log-level", "warn", "minimum log level: debug, info, warn, error")
	flag.Parse()

	targets, level, err := validateFlags(*backends, *interval, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerperfmon:", err)
		os.Exit(2)
	}
	telemetry.SetLogLevel(level)

	mon := monitor.New(targets, monitor.Options{Interval: *interval, TopCells: topCells(*top)})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *once {
		mon.Sweep(ctx)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(mon.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "powerperfmon:", err)
			os.Exit(1)
		}
		return
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /v1/alertz", mon.AlertzHandler())
		mux.Handle("GET /debug/dashboard", mon.DashboardHandler())
		go func() {
			if err := (&http.Server{Addr: *httpAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "powerperfmon: http:", err)
			}
		}()
	}

	mon.Start(ctx)
	t := time.NewTicker(*interval)
	defer t.Stop()
	draw(mon, *top)
	for {
		select {
		case <-t.C:
			draw(mon, *top)
		case <-ctx.Done():
			fmt.Println()
			return
		}
	}
}

// validateFlags checks the watch loop's flags before any work starts
// and returns the backend list and log level they name. A non-positive
// -interval is rejected rather than handed on: the redraw ticker would
// panic on it, and the monitor would quietly scrape every 5s instead.
func validateFlags(backends string, interval time.Duration, logLevel string) ([]string, slog.Level, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return nil, 0, fmt.Errorf("bad -log-level: %w", err)
	}
	var targets []string
	for _, t := range strings.Split(backends, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return nil, 0, errors.New("-backends is required (comma-separated base URLs)")
	}
	if interval <= 0 {
		return nil, 0, fmt.Errorf("-interval must be > 0, got %v", interval)
	}
	return targets, level, nil
}

func topCells(top int) int {
	if top <= 0 {
		return -1 // disables the traces scrape entirely
	}
	return top
}

// draw clears the terminal and renders the fleet summary: one line per
// backend, then the alert list, then the slowest cells.
func draw(mon *monitor.Monitor, top int) {
	snap := mon.Snapshot()
	var b strings.Builder
	b.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
	fmt.Fprintf(&b, "powerperf fleet  %s  sweep #%d  (%d backends)\n\n",
		snap.Generated.Format("15:04:05"), snap.Sweeps, len(snap.Backends))

	w := 0
	for _, bs := range snap.Backends {
		if len(bs.URL) > w {
			w = len(bs.URL)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-8s %-9s %9s %9s %10s %9s\n",
		w, "BACKEND", "STATUS", "UPTIME", "HIT%", "QUEUE", "FILL(ms)", "SCRAPE")
	for _, bs := range snap.Backends {
		status := "up"
		switch {
		case !bs.Up:
			status = "DOWN"
		case !bs.ScrapeOK:
			status = "degraded"
		}
		fmt.Fprintf(&b, "%-*s  %-8s %-9s %8.1f%% %5.0f/%-4.0f %10.2f %7.1fms\n",
			w, bs.URL, status, fmt.Sprintf("%.0fs", bs.UptimeS),
			bs.HitRate*100, bs.QueueDepth, bs.QueueCap, bs.FillMeanMS, bs.ScrapeMS)
		if bs.Error != "" {
			fmt.Fprintf(&b, "%-*s  ! %s\n", w, "", bs.Error)
		}
	}

	b.WriteString("\nALERTS\n")
	if len(snap.Alerts) == 0 {
		b.WriteString("  none: every rule quiet\n")
	}
	for _, a := range snap.Alerts {
		fmt.Fprintf(&b, "  [%-8s] %-28s %-24s %s\n", a.State, a.Rule, a.Backend, a.Reason)
	}

	if top > 0 {
		type slow struct {
			backend string
			cell    monitor.CellLatency
		}
		var cells []slow
		for _, bs := range snap.Backends {
			for _, c := range bs.TopCells {
				cells = append(cells, slow{bs.URL, c})
			}
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].cell.Ms > cells[j].cell.Ms })
		if len(cells) > top {
			cells = cells[:top]
		}
		if len(cells) > 0 {
			b.WriteString("\nSLOWEST CELLS\n")
			for _, c := range cells {
				fmt.Fprintf(&b, "  %8.2fms  %-12s %-16s %s\n", c.cell.Ms, c.cell.Benchmark, c.cell.Processor, c.backend)
			}
		}
	}
	os.Stdout.WriteString(b.String())
}
