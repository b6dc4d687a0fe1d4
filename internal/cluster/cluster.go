package cluster

import (
	"repro/internal/harness"
	"repro/internal/service"
)

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
