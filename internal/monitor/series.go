// Package monitor is the fleet-watching subsystem: a scrape federation
// loop that polls each backend's /healthz and /metricsz on a jittered
// interval, one bounded telemetry.Ring per resulting time series, and a
// detector that evaluates threshold and statistical rules over them —
// the latter reusing internal/stats, so the system flags its own
// regressions the way the paper flags measurement noise: with
// confidence intervals, not vibes. Alerts move through a
// pending→firing→resolved state machine and surface via slog,
// GET /v1/alertz, the /debug/dashboard HTML page, and the powerperfmon
// CLI.
//
// The design budget follows Diamond et al. ("What Is the Cost of Energy
// Monitoring?"): observation must be overhead-gated. Everything here is
// bounded — rings are fixed-size, series per backend are capped, and
// the scrape loop is measured by the monitored-vs-unmonitored study
// benchmark (<2% wall-time overhead, recorded in BENCH_pr5.json).
package monitor

import "time"

// Sample is one observation of one series: a value at a scrape time.
type Sample struct {
	T time.Time
	V float64
}

// Values extracts just the sample values, oldest-first.
func Values(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.V
	}
	return out
}
