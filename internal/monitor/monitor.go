package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traceanalytics"
)

// Version identifies the monitor subsystem on the wire (User-Agent of
// every scrape).
const Version = "0.5.0"

// Options configures a Monitor. The zero value selects sane defaults.
type Options struct {
	// Interval is the scrape-and-evaluate cadence; <= 0 selects 5s.
	Interval time.Duration
	// Jitter is the maximum random extension added to each cycle so a
	// fleet of monitors never synchronizes its scrape waves; <= 0
	// selects Interval/10.
	Jitter time.Duration
	// Timeout bounds each scrape request; <= 0 selects 5s.
	Timeout time.Duration
	// TopCells is how many slowest cells to retain per backend from its
	// span ring; 0 selects 8, negative disables the traces scrape.
	TopCells int
	// Rules are the detector rules; nil selects DefaultRules().
	Rules []Rule
	// Seed seeds the jitter generator; 0 selects 1. Jitter is the one
	// intentionally random element here, but tests still deserve
	// reproducibility.
	Seed int64
}

const (
	// seriesRingCap bounds samples retained per series.
	seriesRingCap = 512
	// maxSeriesPerBackend bounds series per backend.
	maxSeriesPerBackend = 768
	// alertRetention is how long resolved alerts stay visible.
	alertRetention = 10 * time.Minute
)

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	if o.Jitter <= 0 {
		o.Jitter = o.Interval / 10
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.TopCells == 0 {
		o.TopCells = 8
	} else if o.TopCells < 0 {
		o.TopCells = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DefaultRules is the stock rulebook, tuned to the series every
// powerperfd backend exposes, plus the synthetic "fleet" backend's
// trace-analytics series.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "backend_down", Series: "up", Kind: KindThreshold, Cmp: Below, Value: 1,
			For: 2, Clear: 2,
			Help: "Backend /healthz failing or unreachable.",
		},
		{
			Name: "scrape_degraded", Series: "scrape_ok", Kind: KindThreshold, Cmp: Below, Value: 1,
			For: 3, Clear: 2,
			Help: "Backend is alive but its metric endpoints fail to fetch or parse.",
		},
		{
			Name: "queue_saturated", Series: "queue_fill", Kind: KindThreshold, Cmp: Above, Value: 0.9,
			For: 3, Clear: 3,
			Help: "Measurement queue over 90% of capacity: load is outrunning the worker pool.",
		},
		{
			Name: "cache_hit_rate_collapsed", Series: "cache_hit_rate",
			Kind: KindCI, Cmp: Below, Window: 5, Baseline: 20, RelTol: 0.05,
			Help: "Cache hit rate fell below its rolling baseline confidence interval.",
		},
		{
			Name: "fill_latency_regressed", Series: "powerperfd_cell_fill_seconds_mean",
			Kind: KindCI, Cmp: Above, Window: 5, Baseline: 20, RelTol: 0.10, Robust: true,
			Help: "Uncached cell fills are slower than the rolling baseline's bootstrap CI allows — a straggling or degraded backend.",
		},
		{
			Name: "measure_latency_regressed", Series: `powerperfd_http_request_seconds_mean{endpoint="measure"}`,
			Kind: KindCI, Cmp: Above, Window: 5, Baseline: 20, RelTol: 0.10,
			Help: "Measure-endpoint latency left its rolling baseline confidence interval.",
		},
		{
			Name: "uptime_drift", Series: "powerperfd_uptime_seconds",
			Kind: KindTrend, Cmp: Below, Window: 12, Value: 0.5, MinR2: 0.2,
			Help: "Backend uptime trending down across scrapes: the process is crash-looping.",
		},
		{
			Name: "error_budget_exhausted", Series: `slo_error_budget_remaining{objective="availability"}`,
			Kind: KindThreshold, Cmp: Below, Value: 0, For: 2, Clear: 2,
			Help: "The availability SLO's rolling error budget is spent (federated from the backend's /metricsz slo gauges).",
		},
		// Critical-path shift rules watch the synthetic "fleet" backend's
		// trace_stage_share series (trace.go): the assembled traces'
		// critical-path fraction per pipeline stage. Healthy studies spend
		// their critical path in kernel compute; these stages growing
		// means time is leaking into scheduling pathologies.
		{
			Name: "critical_path_steal_shift", Series: `trace_stage_share{stage="steal_redispatch"}`,
			Kind: KindCI, Cmp: Above, Window: 5, Baseline: 20, RelTol: 0.10,
			Help: "Steal/re-dispatch time is taking a growing share of assembled traces' critical paths — lease expiries are gating studies (a straggling or dying backend).",
		},
		{
			Name: "critical_path_queue_shift", Series: `trace_stage_share{stage="queue_wait"}`,
			Kind: KindCI, Cmp: Above, Window: 5, Baseline: 20, RelTol: 0.10,
			Help: "Worker-queue wait is taking a growing share of the fleet's critical paths — backends are compute-saturated.",
		},
	}
}

// Monitor is the fleet monitor: the scrape federation loop, the series
// store, and the detector, plus the HTTP and snapshot surfaces the
// dashboard, /v1/alertz, and powerperfmon render.
type Monitor struct {
	opts     Options
	backends []string
	store    *store
	scraper  *scraper
	detector *Detector
	logger   *slog.Logger
	start    time.Time

	// analytics assembles cross-backend traces from the scraper's span
	// harvests; always on (its memory is bounded).
	analytics *traceanalytics.Engine

	sweeps  atomic.Int64
	running atomic.Bool
}

// New builds a monitor over the given backend base URLs.
func New(backends []string, opts Options) *Monitor {
	opts = opts.withDefaults()
	bes := make([]string, 0, len(backends))
	for _, be := range backends {
		for len(be) > 0 && be[len(be)-1] == '/' {
			be = be[:len(be)-1]
		}
		if be != "" {
			bes = append(bes, be)
		}
	}
	logger := telemetry.Logger("monitor")
	st := newStore(seriesRingCap, maxSeriesPerBackend)
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	m := &Monitor{
		opts:      opts,
		backends:  bes,
		store:     st,
		scraper:   newScraper(bes, opts, st, logger),
		detector:  newDetector(rules, st, logger, alertRetention),
		analytics: traceanalytics.New(traceanalytics.Options{}),
		logger:    logger,
		start:     time.Now(),
	}
	m.scraper.analytics = m.analytics
	return m
}

// Backends returns the monitored backend URLs.
func (m *Monitor) Backends() []string { return append([]string(nil), m.backends...) }

// Detector exposes the rule engine (tests and the CLI inspect it).
func (m *Monitor) Detector() *Detector { return m.detector }

// Sweep runs one synchronous scrape-all-then-evaluate cycle. The run
// loop calls it on the jittered interval; powerperfmon -once calls it
// directly.
func (m *Monitor) Sweep(ctx context.Context) {
	m.scraper.scrapeAll(ctx)
	now := time.Now()
	m.pushTraceSeries(now)
	// Evaluate the synthetic fleet backend too: the trace_stage_share
	// series live there, and every other rule's warmup guard keeps it
	// silent where its series do not exist.
	m.detector.Evaluate(append(append([]string(nil), m.backends...), FleetBackend), now)
	m.sweeps.Add(1)
}

// Sweeps reports completed scrape-evaluate cycles.
func (m *Monitor) Sweeps() int64 { return m.sweeps.Load() }

// Start launches the federation loop: one Sweep per jittered interval
// until ctx is done. It returns immediately; Safe to call once.
func (m *Monitor) Start(ctx context.Context) {
	if !m.running.CompareAndSwap(false, true) {
		return
	}
	rng := rand.New(rand.NewSource(m.opts.Seed))
	var rngMu sync.Mutex
	next := func() time.Duration {
		rngMu.Lock()
		defer rngMu.Unlock()
		j := time.Duration(0)
		if m.opts.Jitter > 0 {
			j = time.Duration(rng.Int63n(int64(m.opts.Jitter) + 1))
		}
		return m.opts.Interval + j
	}
	m.logger.Info("monitor started",
		slog.Int("backends", len(m.backends)),
		slog.Duration("interval", m.opts.Interval),
		slog.Int("rules", len(m.detector.rules)))
	go func() {
		t := time.NewTimer(0) // first sweep immediately
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Sweep(ctx)
				t.Reset(next())
			case <-ctx.Done():
				m.running.Store(false)
				return
			}
		}
	}()
}

// Series returns the newest n samples of one backend series — the
// dashboard's sparkline feed.
func (m *Monitor) Series(backend, key string, n int) []Sample {
	return m.store.tail(backend, key, n)
}

// SeriesKeys lists the series the store holds for one backend.
func (m *Monitor) SeriesKeys(backend string) []string { return m.store.seriesKeys(backend) }

// BackendSnapshot is one backend's row in the fleet view.
type BackendSnapshot struct {
	URL        string          `json:"url"`
	Up         bool            `json:"up"`
	ScrapeOK   bool            `json:"scrape_ok"`
	Error      string          `json:"error,omitempty"`
	LastScrape time.Time       `json:"last_scrape"`
	ScrapeMS   float64         `json:"scrape_ms"`
	Failures   int64           `json:"scrape_failures"`
	Seed       int64           `json:"seed"`
	Build      telemetry.Build `json:"build"`
	UptimeS    float64         `json:"uptime_s"`
	HitRate    float64         `json:"cache_hit_rate"`
	Entries    float64         `json:"cache_entries"`
	QueueDepth float64         `json:"queue_depth"`
	QueueCap   float64         `json:"queue_capacity"`
	Inflight   float64         `json:"inflight_workers"`
	Requests   float64         `json:"requests_total"`
	FillMeanMS float64         `json:"fill_mean_ms"`
	TopCells   []CellLatency   `json:"top_cells,omitempty"`

	// Study store gauges, present only when the backend runs with
	// -store-dir (its /metricsz carries the powerperfd_store_* block).
	HasStore      bool    `json:"store,omitempty"`
	StoreSegments float64 `json:"store_segments,omitempty"`
	StoreRows     float64 `json:"store_rows,omitempty"`
	StoreBytes    float64 `json:"store_bytes,omitempty"`
	StoreLastSeal float64 `json:"store_last_seal_unix,omitempty"`
	StoreDropped  float64 `json:"store_dropped_studies,omitempty"`
	StoreWriteErr float64 `json:"store_write_errors,omitempty"`

	// SLOs federates the backend's slo_* gauges (present only when the
	// backend runs its SLO engine): per-objective error budgets, burn
	// rates, and the worst burn-alert state.
	SLOs []SLOStatus `json:"slos,omitempty"`
}

// SLOStatus is one objective's federated state, read back from the
// backend's /metricsz slo_* gauges.
type SLOStatus struct {
	Objective       string  `json:"objective"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Compliance      float64 `json:"compliance"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	// AlertState is the worst of the objective's burn rules: inactive,
	// resolved, pending, or firing.
	AlertState string `json:"alert_state"`
}

// sloStatuses reassembles per-objective SLO state from the federated
// slo_* series of one backend.
func (m *Monitor) sloStatuses(backend string) []SLOStatus {
	const budgetPrefix = `slo_error_budget_remaining{objective="`
	var out []SLOStatus
	for _, key := range m.store.seriesKeys(backend) {
		if !strings.HasPrefix(key, budgetPrefix) || !strings.HasSuffix(key, `"}`) {
			continue
		}
		obj := key[len(budgetPrefix) : len(key)-2]
		st := SLOStatus{Objective: obj, AlertState: StateInactive.String()}
		st.BudgetRemaining, _ = m.store.last(backend, key)
		st.Compliance, _ = m.store.last(backend, fmt.Sprintf(`slo_compliance{objective=%q}`, obj))
		st.FastBurn, _ = m.store.last(backend, fmt.Sprintf(`slo_burn_rate{objective=%q,window="fast"}`, obj))
		st.SlowBurn, _ = m.store.last(backend, fmt.Sprintf(`slo_burn_rate{objective=%q,window="slow"}`, obj))
		worst := 0.0
		for _, rule := range []string{"slo_fast_burn", "slo_slow_burn"} {
			if v, ok := m.store.last(backend, fmt.Sprintf(`slo_alert_state{objective=%q,rule=%q}`, obj, rule)); ok && v > worst {
				worst = v
			}
		}
		// The gauge encodes rank(state): 0 inactive, 1 resolved, 2
		// pending, 3 firing.
		switch int(worst) {
		case 1:
			st.AlertState = StateResolved.String()
		case 2:
			st.AlertState = StatePending.String()
		case 3:
			st.AlertState = StateFiring.String()
		}
		out = append(out, st)
	}
	return out
}

// Snapshot is the whole fleet view at a moment: what powerperfmon
// prints (-once emits it as JSON) and the dashboard renders.
type Snapshot struct {
	Generated time.Time         `json:"generated"`
	Build     telemetry.Build   `json:"monitor_build"`
	Sweeps    int64             `json:"sweeps"`
	Interval  time.Duration     `json:"interval_ns"`
	Backends  []BackendSnapshot `json:"backends"`
	Alerts    []Alert           `json:"alerts"`

	// Traces is the assembled-trace digest (stage shares, top critical
	// paths, RED table), present once any spans have been harvested.
	Traces *traceanalytics.Summary `json:"traces,omitempty"`
}

// Snapshot assembles the current fleet view.
func (m *Monitor) Snapshot() Snapshot {
	snap := Snapshot{
		Generated: time.Now(),
		Build:     telemetry.BuildInfo(),
		Sweeps:    m.sweeps.Load(),
		Interval:  m.opts.Interval,
		Alerts:    m.detector.Alerts(),
	}
	for _, be := range m.backends {
		bst := m.scraper.state[be]
		bst.mu.Lock()
		bs := BackendSnapshot{
			URL:        be,
			Up:         bst.up,
			ScrapeOK:   bst.scrapeOK,
			Error:      bst.lastErr,
			LastScrape: bst.lastScrape,
			ScrapeMS:   float64(bst.lastDur.Nanoseconds()) / 1e6,
			Failures:   bst.failures,
			Seed:       bst.seed,
			Build:      bst.build,
			TopCells:   append([]CellLatency(nil), bst.topCells...),
		}
		bst.mu.Unlock()
		bs.UptimeS, _ = m.store.last(be, "powerperfd_uptime_seconds")
		bs.HitRate, _ = m.store.last(be, "cache_hit_rate")
		bs.Entries, _ = m.store.last(be, "powerperfd_cache_entries")
		bs.QueueDepth, _ = m.store.last(be, "powerperfd_queue_depth")
		bs.QueueCap, _ = m.store.last(be, "powerperfd_queue_capacity")
		bs.Inflight, _ = m.store.last(be, "powerperfd_inflight_workers")
		for _, ep := range []string{"measure", "experiments", "dataset"} {
			v, _ := m.store.last(be, `powerperfd_requests_total{endpoint="`+ep+`"}`)
			bs.Requests += v
		}
		if v, ok := m.store.last(be, "powerperfd_cell_fill_seconds_mean"); ok {
			bs.FillMeanMS = v * 1e3
		}
		if v, ok := m.store.last(be, "powerperfd_store_segments"); ok {
			bs.HasStore = true
			bs.StoreSegments = v
			bs.StoreRows, _ = m.store.last(be, "powerperfd_store_rows")
			bs.StoreBytes, _ = m.store.last(be, "powerperfd_store_bytes")
			bs.StoreLastSeal, _ = m.store.last(be, "powerperfd_store_last_seal_timestamp_seconds")
			bs.StoreDropped, _ = m.store.last(be, "powerperfd_store_dropped_studies_total")
			bs.StoreWriteErr, _ = m.store.last(be, "powerperfd_store_write_errors_total")
		}
		bs.SLOs = m.sloStatuses(be)
		snap.Backends = append(snap.Backends, bs)
	}
	if sum := m.analytics.Summary(5); sum.Stats.SpansSeen > 0 {
		snap.Traces = &sum
	}
	return snap
}

// AlertzHandler serves GET /v1/alertz: the alert list plus fleet
// health, JSON.
func (m *Monitor) AlertzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := m.Snapshot()
		firing := 0
		for _, a := range snap.Alerts {
			if a.State == StateFiring {
				firing++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(struct {
			Generated time.Time       `json:"generated"`
			Build     telemetry.Build `json:"monitor_build"`
			Firing    int             `json:"firing"`
			Alerts    []Alert         `json:"alerts"`
		}{snap.Generated, snap.Build, firing, snap.Alerts})
	})
}
