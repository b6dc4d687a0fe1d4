package cluster

import (
	"strconv"

	"repro/internal/harness"
	"repro/internal/service"
)

// appendRouteKey appends a job's rendezvous key to b: exactly the
// determinism tuple, so every scheduler homes a cell on the same backend
// and a backend's cache sees a stable slice of the grid. strconv appends
// render the same bytes the former fmt.Sprintf("%d|%s|%s|%d|%d|%.17g|%t",
// ...) did, so homes are unchanged across versions.
func appendRouteKey(b []byte, seed int64, j harness.Job) []byte {
	cfg := j.CP.Config
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '|')
	b = append(b, j.Bench.Name...)
	b = append(b, '|')
	b = append(b, j.CP.Proc.Name...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.Cores), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.SMTWays), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, cfg.ClockGHz, 'g', 17, 64)
	b = append(b, '|')
	return strconv.AppendBool(b, cfg.Turbo)
}

// echoes reports whether a streamed cell carries the identity of the
// job it answers. The scheduler always sends an explicit configuration,
// so the echo must match it field for field.
func echoes(cr *service.CellResult, j harness.Job) bool {
	return cr.Benchmark == j.Bench.Name && cr.Processor == j.CP.Proc.Name && cr.Config == service.ConfigToJSON(j.CP.Config)
}

// BackendStats is one backend's resilience state plus its measured
// request-latency distribution (from the scheduler's vantage point:
// queueing, network, and backend compute together).
type BackendStats struct {
	URL      string  `json:"url"`
	State    string  `json:"breaker_state"`
	Opens    int64   `json:"breaker_opens"`
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"latency_p50_ms"`
	P90Ms    float64 `json:"latency_p90_ms"`
	P99Ms    float64 `json:"latency_p99_ms"`

	// SLO attribution: resilience interventions charged against this
	// backend — leases stolen from it while it stalled, and lease
	// dispatches it failed.
	StolenFrom    int64 `json:"stolen_from,omitempty"`
	LeaseFailures int64 `json:"lease_failures,omitempty"`
}
