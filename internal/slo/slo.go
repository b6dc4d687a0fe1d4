// Package slo closes the observability loop: it defines service-level
// objectives (latency, availability, ingest durability) over the
// event streams the serving path already produces, tracks each
// objective's rolling error budget, and fires multi-window burn-rate
// alerts through the monitor's detector state machine.
//
// The mechanics follow the SRE-workbook recipe. An objective with
// target T has an error budget of 1-T; the burn rate over a window is
// the observed bad fraction divided by that budget, so burn 1 spends
// the budget exactly at the sustainable pace. Alerts pair a short
// confirmation window with a long smoothing window and fire only when
// BOTH exceed the threshold — implemented by pushing min(short, long)
// as one series, which breaches exactly when the pair does:
//
//	fast page:  burn(5m)  > 14.4 AND burn(1h) > 14.4  (2% budget/hour)
//	slow page:  burn(6h)  > 1    AND burn(3d) > 1     (budget pace)
//
// Observation is two atomic adds per request; windows are cumulative
// (good, total) snapshots taken on a fixed resolution, so burn over
// any window is two ring lookups. The engine never touches the
// measurement pipeline — CSVs are byte-identical with SLO tracking on,
// enforced by TestCSVBytesUnchangedBySLO.
package slo

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// Kind classifies an objective.
type Kind string

const (
	// KindLatency judges request durations against LatencyThreshold.
	KindLatency Kind = "latency"
	// KindAvailability judges request success (non-5xx).
	KindAvailability Kind = "availability"
	// KindDurability judges ingest outcomes (rows committed vs dropped),
	// sampled from cumulative counters via Source.
	KindDurability Kind = "durability"
)

// Objective is one service-level objective.
type Objective struct {
	// Name identifies the objective in /v1/sloz, metrics, and alerts
	// (it is the detector's target, so alerts read rule+objective).
	Name        string
	Kind        Kind
	Description string
	// Target is the good fraction promised, e.g. 0.99; the error budget
	// is 1-Target.
	Target float64
	// LatencyThreshold is the good/bad boundary for KindLatency:
	// requests at or under it are good.
	LatencyThreshold time.Duration
	// Source, when set, is sampled each tick for cumulative (good,
	// total) counts instead of per-event Observe calls — the shape of
	// ingest-durability counters.
	Source func() (good, total int64)
}

// Config configures an Engine. Zero values select the production
// defaults noted per field; tests compress the windows.
type Config struct {
	Objectives []Objective
	// Resolution is the tick width: how often cumulative snapshots are
	// taken and rules evaluated (default 10s).
	Resolution time.Duration
	// BudgetWindow is the rolling error-budget period (default 24h).
	BudgetWindow time.Duration
	// Multi-window pairs (defaults 5m/1h and 6h/3d) and their burn
	// thresholds (defaults 14.4 and 1).
	FastShort, FastLong time.Duration
	SlowShort, SlowLong time.Duration
	FastBurn, SlowBurn  float64
	// For/Clear are the detector streaks (default 2 each).
	For, Clear int
	// ExemplarCap bounds retained breach exemplars per objective
	// (default 8).
	ExemplarCap int
	// Pinner, when set, protects exemplar-referenced traces from ring
	// eviction and tail-sampling drops: each breach exemplar pins its
	// trace on capture and releases it when the exemplar is trimmed or
	// the objective's burn alerts leave the pending/firing states — so
	// a firing page's /v1/traces links keep resolving for as long as
	// the page is actionable. The server wires its tracer here.
	Pinner Pinner
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Pinner is the trace-retention hook (telemetry.Tracer satisfies it).
type Pinner interface {
	Pin(telemetry.TraceID)
	Unpin(telemetry.TraceID)
}

func (c Config) withDefaults() Config {
	if c.Resolution <= 0 {
		c.Resolution = 10 * time.Second
	}
	if c.BudgetWindow <= 0 {
		c.BudgetWindow = 24 * time.Hour
	}
	if c.FastShort <= 0 {
		c.FastShort = 5 * time.Minute
	}
	if c.FastLong <= 0 {
		c.FastLong = time.Hour
	}
	if c.SlowShort <= 0 {
		c.SlowShort = 6 * time.Hour
	}
	if c.SlowLong <= 0 {
		c.SlowLong = 72 * time.Hour
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 14.4
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 1
	}
	if c.For <= 0 {
		c.For = 2
	}
	if c.Clear <= 0 {
		c.Clear = 2
	}
	if c.ExemplarCap <= 0 {
		c.ExemplarCap = 8
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Rule and series names the engine drives through the detector.
const (
	RuleFastBurn   = "slo_fast_burn"
	RuleSlowBurn   = "slo_slow_burn"
	SeriesFastBurn = "slo_burn_fast"
	SeriesSlowBurn = "slo_burn_slow"
)

// cumSample is one resolution tick's cumulative counters.
type cumSample struct {
	t           time.Time
	good, total int64
}

type objective struct {
	Objective
	good, total atomic.Int64

	// ring of cumulative snapshots, engine.mu-guarded, sized to cover
	// the longest window at the configured resolution.
	ring *telemetry.Ring[cumSample]

	exMu      sync.Mutex
	exemplars []BreachExemplar // newest last, bounded by ExemplarCap

	// alertActive tracks whether any of this objective's burn alerts is
	// pending or firing (engine.mu-guarded); the falling edge releases
	// the exemplar trace pins.
	alertActive bool
}

// BreachExemplar links one budget-burning observation to its trace.
type BreachExemplar struct {
	TraceID string    `json:"trace_id"`
	Seconds float64   `json:"seconds"`
	Time    time.Time `json:"time"`

	// tid/pinned track the Pinner reference so a trace is unpinned
	// exactly once — on trim or on alert resolution, whichever first.
	tid    telemetry.TraceID
	pinned bool
}

// Engine tracks objectives and drives burn-rate alerts.
type Engine struct {
	cfg    Config
	objs   []*objective
	byName map[string]*objective
	names  []string
	det    *monitor.PushDetector

	mu       sync.Mutex
	lastTick time.Time
}

// New builds an engine. Objectives with empty names or out-of-range
// targets are rejected.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	maxWin := cfg.SlowLong
	if cfg.BudgetWindow > maxWin {
		maxWin = cfg.BudgetWindow
	}
	ringLen := int(maxWin/cfg.Resolution) + 2
	const maxRing = 1 << 17 // ~3MB of cumSamples per objective, the ceiling
	if ringLen > maxRing {
		ringLen = maxRing
	}
	e := &Engine{cfg: cfg, byName: make(map[string]*objective)}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			return nil, fmt.Errorf("slo: objective with empty name")
		}
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("slo: objective %s target %v outside (0,1)", o.Name, o.Target)
		}
		if _, dup := e.byName[o.Name]; dup {
			return nil, fmt.Errorf("slo: duplicate objective %s", o.Name)
		}
		obj := &objective{Objective: o, ring: telemetry.NewRing[cumSample](ringLen)}
		e.objs = append(e.objs, obj)
		e.byName[o.Name] = obj
		e.names = append(e.names, o.Name)
	}
	rules := []monitor.Rule{
		{
			Name: RuleFastBurn, Series: SeriesFastBurn, Kind: monitor.KindThreshold,
			Cmp: monitor.Above, Value: cfg.FastBurn, For: cfg.For, Clear: cfg.Clear,
			Help: fmt.Sprintf("Error-budget burn over both the %v and %v windows exceeds %.3g — the page-now pace.",
				cfg.FastShort, cfg.FastLong, cfg.FastBurn),
		},
		{
			Name: RuleSlowBurn, Series: SeriesSlowBurn, Kind: monitor.KindThreshold,
			Cmp: monitor.Above, Value: cfg.SlowBurn, For: cfg.For, Clear: cfg.Clear,
			Help: fmt.Sprintf("Error-budget burn over both the %v and %v windows exceeds %.3g — spending faster than the budget period allows.",
				cfg.SlowShort, cfg.SlowLong, cfg.SlowBurn),
		},
	}
	e.det = monitor.NewPushDetector("slo", rules)
	return e, nil
}

// Names returns the objective names in configuration order.
func (e *Engine) Names() []string { return append([]string(nil), e.names...) }

// Rules returns the burn-rate rules (defaults applied).
func (e *Engine) Rules() []monitor.Rule { return e.det.Rules() }

// Observe records one event against an objective: two atomic adds, hot
// path safe. Unknown objectives are ignored (a nil-engine-like no-op
// rather than a panic in the serving path).
func (e *Engine) Observe(name string, good bool) {
	obj := e.byName[name]
	if obj == nil {
		return
	}
	obj.total.Add(1)
	if good {
		obj.good.Add(1)
	}
}

// ObserveLatency judges one request duration against a latency
// objective's threshold and, on breach, retains the trace as an
// exemplar so the eventual page links to a concrete offending request.
func (e *Engine) ObserveLatency(name string, d time.Duration, trace telemetry.TraceID) {
	obj := e.byName[name]
	if obj == nil {
		return
	}
	good := d <= obj.LatencyThreshold
	obj.total.Add(1)
	if good {
		obj.good.Add(1)
	} else if trace != 0 {
		e.recordBreach(obj, trace, float64(d)/1e9)
	}
}

// RecordBreach attaches a breach exemplar to an objective directly —
// for bad events whose badness is not a duration (an availability
// error, a dropped batch with a known trace).
func (e *Engine) RecordBreach(name string, trace telemetry.TraceID, seconds float64) {
	obj := e.byName[name]
	if obj == nil || trace == 0 {
		return
	}
	e.recordBreach(obj, trace, seconds)
}

func (e *Engine) recordBreach(obj *objective, trace telemetry.TraceID, seconds float64) {
	ex := BreachExemplar{TraceID: trace.String(), Seconds: seconds, Time: e.cfg.Now(), tid: trace}
	var unpin []telemetry.TraceID
	obj.exMu.Lock()
	if e.cfg.Pinner != nil {
		e.cfg.Pinner.Pin(trace)
		ex.pinned = true
	}
	obj.exemplars = append(obj.exemplars, ex)
	if over := len(obj.exemplars) - e.cfg.ExemplarCap; over > 0 {
		for _, old := range obj.exemplars[:over] {
			if old.pinned {
				unpin = append(unpin, old.tid)
			}
		}
		obj.exemplars = append(obj.exemplars[:0], obj.exemplars[over:]...)
	}
	obj.exMu.Unlock()
	for _, tid := range unpin {
		e.cfg.Pinner.Unpin(tid)
	}
}

// Advance moves the engine's clock to now: at each elapsed resolution
// boundary it snapshots cumulative counters, recomputes burn rates,
// and evaluates the detector. Call it from any read path (it is how
// /v1/sloz and /metricsz keep the state machine moving without a
// dedicated goroutine) or from a ticker. Catch-up after an idle gap is
// capped; the detector just sees a late, current evaluation.
func (e *Engine) Advance(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res := e.cfg.Resolution
	if e.lastTick.IsZero() {
		e.lastTick = now
		e.tickLocked(now)
		return
	}
	const maxCatchup = 16
	steps := 0
	for steps < maxCatchup && !now.Before(e.lastTick.Add(res)) {
		e.lastTick = e.lastTick.Add(res)
		e.tickLocked(e.lastTick)
		steps++
	}
	if steps == maxCatchup && !now.Before(e.lastTick.Add(res)) {
		e.lastTick = now // long idle: jump rather than replay hours
		e.tickLocked(now)
	}
}

func (e *Engine) tickLocked(t time.Time) {
	for _, obj := range e.objs {
		if obj.Source != nil {
			g, tot := obj.Source()
			obj.good.Store(g)
			obj.total.Store(tot)
		}
		if obj.ring.Len() == 0 {
			// Seed a zero baseline one resolution back so window deltas
			// cover events observed before the first tick. Source-fed
			// objectives baseline at their current counters instead: the
			// engine cannot attribute a process's pre-engine history.
			base := cumSample{t: t.Add(-e.cfg.Resolution)}
			if obj.Source != nil {
				base.good, base.total = obj.good.Load(), obj.total.Load()
			}
			obj.ring.Push(base)
		}
		obj.ring.Push(cumSample{t: t, good: obj.good.Load(), total: obj.total.Load()})
		fast := minF(e.burnLocked(obj, t, e.cfg.FastShort), e.burnLocked(obj, t, e.cfg.FastLong))
		slow := minF(e.burnLocked(obj, t, e.cfg.SlowShort), e.burnLocked(obj, t, e.cfg.SlowLong))
		e.det.Push(obj.Name, SeriesFastBurn, t, fast)
		e.det.Push(obj.Name, SeriesSlowBurn, t, slow)
	}
	e.det.Evaluate(e.names, t)
	if e.cfg.Pinner != nil {
		e.releasePinsLocked()
	}
}

// releasePinsLocked unpins each objective's exemplar traces on the
// falling edge of its alert activity: once no burn alert is pending or
// firing, the page is over and the exemplars' traces may rejoin normal
// ring retention. The exemplars themselves stay listed — only the
// retention guarantee lapses. Caller holds e.mu.
func (e *Engine) releasePinsLocked() {
	active := make(map[string]bool, len(e.names))
	for _, a := range e.det.Alerts() {
		if a.State == monitor.StatePending || a.State == monitor.StateFiring {
			active[a.Backend] = true
		}
	}
	for _, obj := range e.objs {
		now := active[obj.Name]
		was := obj.alertActive
		obj.alertActive = now
		if !was || now {
			continue
		}
		var unpin []telemetry.TraceID
		obj.exMu.Lock()
		for i := range obj.exemplars {
			if obj.exemplars[i].pinned {
				unpin = append(unpin, obj.exemplars[i].tid)
				obj.exemplars[i].pinned = false
			}
		}
		obj.exMu.Unlock()
		for _, tid := range unpin {
			e.cfg.Pinner.Unpin(tid)
		}
	}
}

// at returns the newest cumulative snapshot at or before cutoff,
// falling back to the oldest retained (short-uptime semantics: the
// window is however much history exists). Advance pushes snapshots at
// strictly increasing times, so the ring is sorted and a binary search
// finds the snapshot a scan from the oldest would.
func (obj *objective) at(cutoff time.Time) (cumSample, bool) {
	n := obj.ring.Len()
	if n == 0 {
		return cumSample{}, false
	}
	after := sort.Search(n, func(i int) bool { return obj.ring.At(i).t.After(cutoff) })
	return obj.ring.At(max(after-1, 0)), true // oldest fallback when none is at or before
}

// burnLocked computes the burn rate over the trailing window ending at
// now: bad fraction across the window divided by the error budget.
func (e *Engine) burnLocked(obj *objective, now time.Time, window time.Duration) float64 {
	cur, ok := obj.ring.Last()
	if !ok {
		return 0
	}
	base, ok := obj.at(now.Add(-window))
	if !ok {
		return 0
	}
	dTotal := cur.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dBad := (cur.total - cur.good) - (base.total - base.good)
	if dBad < 0 {
		dBad = 0
	}
	badFrac := float64(dBad) / float64(dTotal)
	return badFrac / (1 - obj.Target)
}

// windowCounts returns (good, total) deltas over the trailing window.
func (e *Engine) windowCounts(obj *objective, now time.Time, window time.Duration) (good, total int64) {
	cur, ok := obj.ring.Last()
	if !ok {
		return 0, 0
	}
	base, ok := obj.at(now.Add(-window))
	if !ok {
		return 0, 0
	}
	return cur.good - base.good, cur.total - base.total
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// BurnRates is the windowed burn-rate digest of one objective.
type BurnRates struct {
	FastShort float64 `json:"fast_short"`
	FastLong  float64 `json:"fast_long"`
	SlowShort float64 `json:"slow_short"`
	SlowLong  float64 `json:"slow_long"`
	// Fast and Slow are the min of each pair — the values the alert
	// rules judge.
	Fast float64 `json:"fast"`
	Slow float64 `json:"slow"`
}

// ObjectiveStatus is one objective's externally served state.
type ObjectiveStatus struct {
	Name               string           `json:"name"`
	Kind               Kind             `json:"kind"`
	Description        string           `json:"description,omitempty"`
	Target             float64          `json:"target"`
	LatencyThresholdNS int64            `json:"latency_threshold_ns,omitempty"`
	Good               int64            `json:"good"`
	Total              int64            `json:"total"`
	Compliance         float64          `json:"compliance"`
	BudgetRemaining    float64          `json:"budget_remaining"`
	Burn               BurnRates        `json:"burn"`
	AlertState         string           `json:"alert_state"`
	Exemplars          []BreachExemplar `json:"exemplars,omitempty"`
}

// AlertStatus is a detector alert annotated with the objective's
// breach exemplars, so a firing page carries resolvable trace ids.
type AlertStatus struct {
	monitor.Alert
	Exemplars []BreachExemplar `json:"exemplars,omitempty"`
}

// Snapshot is the /v1/sloz payload.
type Snapshot struct {
	GeneratedAt    time.Time         `json:"generated_at"`
	ResolutionNS   int64             `json:"resolution_ns"`
	BudgetWindowNS int64             `json:"budget_window_ns"`
	Objectives     []ObjectiveStatus `json:"objectives"`
	Alerts         []AlertStatus     `json:"alerts"`
}

// Snapshot advances the engine to now and assembles the full state.
func (e *Engine) Snapshot(now time.Time) Snapshot {
	e.Advance(now)
	e.mu.Lock()
	defer e.mu.Unlock()

	alerts := e.det.Alerts()
	stateFor := func(name string) string {
		worst := monitor.StateInactive
		for _, a := range alerts {
			if a.Backend != name {
				continue
			}
			if rank(a.State) > rank(worst) {
				worst = a.State
			}
		}
		return worst.String()
	}

	snap := Snapshot{
		GeneratedAt:    now,
		ResolutionNS:   int64(e.cfg.Resolution),
		BudgetWindowNS: int64(e.cfg.BudgetWindow),
	}
	for _, obj := range e.objs {
		good, total := e.windowCounts(obj, now, e.cfg.BudgetWindow)
		st := ObjectiveStatus{
			Name:               obj.Name,
			Kind:               obj.Kind,
			Description:        obj.Description,
			Target:             obj.Target,
			LatencyThresholdNS: int64(obj.LatencyThreshold),
			Good:               good,
			Total:              total,
			Compliance:         1,
			BudgetRemaining:    1,
			Burn: BurnRates{
				FastShort: e.burnLocked(obj, now, e.cfg.FastShort),
				FastLong:  e.burnLocked(obj, now, e.cfg.FastLong),
				SlowShort: e.burnLocked(obj, now, e.cfg.SlowShort),
				SlowLong:  e.burnLocked(obj, now, e.cfg.SlowLong),
			},
			AlertState: stateFor(obj.Name),
		}
		st.Burn.Fast = minF(st.Burn.FastShort, st.Burn.FastLong)
		st.Burn.Slow = minF(st.Burn.SlowShort, st.Burn.SlowLong)
		if total > 0 {
			st.Compliance = float64(good) / float64(total)
			bad := float64(total - good)
			allowed := float64(total) * (1 - obj.Target)
			if allowed > 0 {
				st.BudgetRemaining = 1 - bad/allowed
			} else if bad > 0 {
				st.BudgetRemaining = 0
			}
		}
		obj.exMu.Lock()
		if len(obj.exemplars) > 0 {
			st.Exemplars = make([]BreachExemplar, len(obj.exemplars))
			// Newest first: the trace an operator clicks is the freshest.
			for i, ex := range obj.exemplars {
				st.Exemplars[len(obj.exemplars)-1-i] = ex
			}
		}
		obj.exMu.Unlock()
		snap.Objectives = append(snap.Objectives, st)
	}
	for _, a := range alerts {
		as := AlertStatus{Alert: a}
		if obj := e.byName[a.Backend]; obj != nil {
			obj.exMu.Lock()
			for i := len(obj.exemplars) - 1; i >= 0; i-- {
				as.Exemplars = append(as.Exemplars, obj.exemplars[i])
			}
			obj.exMu.Unlock()
		}
		snap.Alerts = append(snap.Alerts, as)
	}
	return snap
}

func rank(s monitor.AlertState) int {
	switch s {
	case monitor.StateFiring:
		return 3
	case monitor.StatePending:
		return 2
	case monitor.StateResolved:
		return 1
	}
	return 0
}

// Alerts returns the detector's live alerts (firing first).
func (e *Engine) Alerts() []monitor.Alert { return e.det.Alerts() }

// WriteMetrics renders the engine's state as Prometheus gauges for
// /metricsz, which is how the fleet monitor federates SLO state onto
// the dashboard: budget gauges per objective, burn rates per window
// pair, and a numeric alert state per rule.
func (e *Engine) WriteMetrics(w io.Writer, now time.Time) {
	snap := e.Snapshot(now)
	var b strings.Builder
	b.WriteString("# HELP slo_error_budget_remaining Fraction of the rolling error budget left (1 untouched, <=0 exhausted).\n# TYPE slo_error_budget_remaining gauge\n")
	for _, o := range snap.Objectives {
		fmt.Fprintf(&b, "slo_error_budget_remaining{objective=%s} %s\n",
			telemetry.PromQuote(o.Name), formatGauge(o.BudgetRemaining))
	}
	b.WriteString("# HELP slo_compliance Good fraction over the budget window.\n# TYPE slo_compliance gauge\n")
	for _, o := range snap.Objectives {
		fmt.Fprintf(&b, "slo_compliance{objective=%s} %s\n",
			telemetry.PromQuote(o.Name), formatGauge(o.Compliance))
	}
	b.WriteString("# HELP slo_burn_rate Error-budget burn rate, min of each multi-window pair.\n# TYPE slo_burn_rate gauge\n")
	for _, o := range snap.Objectives {
		fmt.Fprintf(&b, "slo_burn_rate{objective=%s,window=\"fast\"} %s\n",
			telemetry.PromQuote(o.Name), formatGauge(o.Burn.Fast))
		fmt.Fprintf(&b, "slo_burn_rate{objective=%s,window=\"slow\"} %s\n",
			telemetry.PromQuote(o.Name), formatGauge(o.Burn.Slow))
	}
	b.WriteString("# HELP slo_alert_state Burn-rate alert state per objective and rule (0 inactive, 1 resolved, 2 pending, 3 firing).\n# TYPE slo_alert_state gauge\n")
	alerts := snap.Alerts
	for _, o := range snap.Objectives {
		for _, rule := range []string{RuleFastBurn, RuleSlowBurn} {
			state := 0
			for _, a := range alerts {
				if a.Backend == o.Name && a.Rule == rule {
					state = rank(a.State)
				}
			}
			fmt.Fprintf(&b, "slo_alert_state{objective=%s,rule=%q} %d\n",
				telemetry.PromQuote(o.Name), rule, state)
		}
	}
	_, _ = io.WriteString(w, b.String())
}

func formatGauge(v float64) string {
	// Clamp pathological negatives so the exposition stays readable;
	// the JSON snapshot carries the raw value.
	if v < -1e6 {
		v = -1e6
	}
	s := fmt.Sprintf("%.6g", v)
	return s
}
