package monitor

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// RuleKind selects how a rule judges its series.
type RuleKind int

const (
	// KindThreshold compares the series' latest value to Value.
	KindThreshold RuleKind = iota
	// KindRate compares the series' reset-corrected increase per second
	// over the last Window samples to Value (counters only).
	KindRate
	// KindCI is the paper's regression test turned on the system: the
	// mean of the last Window samples must stay inside the Student-t
	// confidence interval of the preceding Baseline samples (at Level,
	// widened by RelTol); with Robust set the baseline interval is a
	// BootstrapCI of the median instead, shrugging off outlier scrapes.
	KindCI
	// KindTrend fits Linregress over the last Window samples and fires
	// on sustained drift: projected relative change across the window
	// beyond Value with fit R2 of at least MinR2.
	KindTrend
	// KindGolden compares the series' latest value to a fixed golden
	// reference (Value) within relative tolerance RelTol — drift against
	// the committed seed-42 aggregates, detected the way the paper
	// validates sensors against reference currents.
	KindGolden
)

func (k RuleKind) String() string {
	switch k {
	case KindThreshold:
		return "threshold"
	case KindRate:
		return "rate"
	case KindCI:
		return "ci"
	case KindTrend:
		return "trend"
	case KindGolden:
		return "golden"
	}
	return "unknown"
}

// Compare orients threshold-style rules.
type Compare int

const (
	// Above fires when the observed value exceeds the limit.
	Above Compare = iota
	// Below fires when the observed value undershoots the limit.
	Below
)

// Rule is one detector rule, evaluated per backend per cycle against
// one stored series.
type Rule struct {
	// Name identifies the rule in alerts, logs, and /v1/alertz.
	Name string
	// Series is the store key to evaluate (e.g. "up",
	// "cache_hit_rate", or a full exposition key like
	// `powerperfd_http_request_seconds_mean{endpoint="measure"}`).
	Series string
	Kind   RuleKind
	Cmp    Compare
	// Value is the threshold, rate limit, trend limit (relative drift
	// per window), or golden reference, per Kind.
	Value float64
	// RelTol widens the CI (KindCI) or golden band (KindGolden) by a
	// relative margin; the CI default of 0 trusts the interval as-is.
	RelTol float64
	// Window is the recent-sample count judged by the rule; defaults to
	// 5 (KindCI/KindRate) or 12 (KindTrend).
	Window int
	// Baseline is the baseline-sample count preceding the window for
	// KindCI; defaults to 20.
	Baseline int
	// Level is the confidence level for KindCI; defaults to 0.95, the
	// paper's reporting level.
	Level float64
	// Robust selects the BootstrapCI-of-median baseline for KindCI.
	Robust bool
	// MinR2 gates KindTrend on fit quality; defaults to 0.5.
	MinR2 float64
	// MinSamples suppresses evaluation until the series holds at least
	// this many samples (warmup guard); defaults per Kind.
	MinSamples int
	// For is how many consecutive breached cycles move the alert from
	// pending to firing; defaults to 2. Clear is how many consecutive
	// clean cycles move it from firing to resolved; defaults to 2.
	For, Clear int
	// Help describes the rule on the dashboard and in alert payloads.
	Help string
}

func (r Rule) withDefaults() Rule {
	if r.Window <= 0 {
		if r.Kind == KindTrend {
			r.Window = 12
		} else {
			r.Window = 5
		}
	}
	if r.Baseline <= 0 {
		r.Baseline = 20
	}
	if r.Level <= 0 || r.Level >= 1 {
		r.Level = 0.95
	}
	if r.MinR2 <= 0 {
		r.MinR2 = 0.5
	}
	if r.For <= 0 {
		r.For = 2
	}
	if r.Clear <= 0 {
		r.Clear = 2
	}
	if r.MinSamples <= 0 {
		switch r.Kind {
		case KindThreshold, KindGolden:
			r.MinSamples = 1
		case KindRate:
			r.MinSamples = 2
		case KindCI:
			r.MinSamples = r.Baseline + r.Window
		case KindTrend:
			r.MinSamples = r.Window
		}
	}
	return r
}

// AlertState is an alert's position in the lifecycle.
type AlertState int

const (
	// StateInactive: the rule is quiet (alerts in this state are not
	// reported).
	StateInactive AlertState = iota
	// StatePending: breached, but not yet For consecutive cycles.
	StatePending
	// StateFiring: breached For consecutive cycles.
	StateFiring
	// StateResolved: previously firing, now clean; retained for
	// post-mortem visibility until the retention horizon passes.
	StateResolved
)

func (s AlertState) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	}
	return "unknown"
}

// MarshalText renders the state for JSON payloads.
func (s AlertState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the state back, so /v1/alertz consumers
// (powerperfmon, tests) can decode alerts into the same type.
func (s *AlertState) UnmarshalText(text []byte) error {
	switch string(text) {
	case "inactive":
		*s = StateInactive
	case "pending":
		*s = StatePending
	case "firing":
		*s = StateFiring
	case "resolved":
		*s = StateResolved
	default:
		return fmt.Errorf("monitor: unknown alert state %q", text)
	}
	return nil
}

// Alert is one rule's state against one backend.
type Alert struct {
	Rule    string     `json:"rule"`
	Backend string     `json:"backend"`
	Series  string     `json:"series"`
	State   AlertState `json:"state"`
	// Value is the observation that drove the latest evaluation; Reason
	// says why it breached (or last breached).
	Value  float64 `json:"value"`
	Reason string  `json:"reason"`
	// Lifecycle timestamps; zero when the state was never entered in
	// this activation.
	PendingSince  time.Time `json:"pending_since,omitempty"`
	FiringSince   time.Time `json:"firing_since,omitempty"`
	ResolvedSince time.Time `json:"resolved_since,omitempty"`

	breachStreak int
	cleanStreak  int
}

// Detector evaluates rules over the store each cycle and drives every
// (rule, backend) alert through pending→firing→resolved, logging each
// transition.
type Detector struct {
	rules     []Rule
	store     *store
	logger    *slog.Logger
	retention time.Duration

	mu     sync.Mutex
	alerts map[string]*Alert // rule|backend -> state
	evals  int64
}

func newDetector(rules []Rule, st *store, logger *slog.Logger, retention time.Duration) *Detector {
	withDefaults := make([]Rule, len(rules))
	for i, r := range rules {
		withDefaults[i] = r.withDefaults()
	}
	if retention <= 0 {
		retention = 10 * time.Minute
	}
	return &Detector{
		rules:     withDefaults,
		store:     st,
		logger:    logger,
		retention: retention,
		alerts:    make(map[string]*Alert),
	}
}

// Rules returns the detector's rules (defaults applied).
func (d *Detector) Rules() []Rule { return append([]Rule(nil), d.rules...) }

// Evaluate runs every rule against every backend once. now stamps the
// transitions so tests can drive the clock.
func (d *Detector) Evaluate(backends []string, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.evals++
	for _, be := range backends {
		for i := range d.rules {
			d.evalRule(&d.rules[i], be, now)
		}
	}
	// Retention sweep: resolved alerts age out; inactive ones vanish.
	for k, a := range d.alerts {
		if a.State == StateResolved && now.Sub(a.ResolvedSince) > d.retention {
			delete(d.alerts, k)
		}
	}
}

func (d *Detector) evalRule(r *Rule, backend string, now time.Time) {
	samples := d.store.tail(backend, r.Series, r.MinSamples)
	if len(samples) < r.MinSamples {
		return // warmup or a series this backend does not expose
	}
	breached, value, reason := judge(r, samples)
	key := r.Name + "|" + backend
	a := d.alerts[key]
	if a == nil {
		if !breached {
			return
		}
		a = &Alert{Rule: r.Name, Backend: backend, Series: r.Series}
		d.alerts[key] = a
	}
	a.Value = value
	if breached {
		a.Reason = reason
		a.breachStreak++
		a.cleanStreak = 0
		if a.State == StateInactive || a.State == StateResolved {
			a.State = StatePending
			a.PendingSince = now
			a.FiringSince, a.ResolvedSince = time.Time{}, time.Time{}
			a.breachStreak = 1
			d.logger.Info("alert pending",
				slog.String("rule", r.Name), slog.String("backend", backend),
				slog.Float64("value", value), slog.String("reason", reason))
		}
		// Not else-if: with For of 1 a first breach fires immediately.
		if a.State == StatePending && a.breachStreak >= r.For {
			a.State = StateFiring
			a.FiringSince = now
			d.logger.Warn("alert firing",
				slog.String("rule", r.Name), slog.String("backend", backend),
				slog.Float64("value", value), slog.String("reason", reason))
		}
		return
	}
	a.cleanStreak++
	a.breachStreak = 0
	switch a.State {
	case StatePending:
		// A pending alert that clears was noise, not an incident.
		a.State = StateInactive
		delete(d.alerts, key)
	case StateFiring:
		if a.cleanStreak >= r.Clear {
			a.State = StateResolved
			a.ResolvedSince = now
			d.logger.Info("alert resolved",
				slog.String("rule", r.Name), slog.String("backend", backend),
				slog.Float64("value", value))
		}
	}
}

// judge evaluates one rule over its sample window and reports whether
// it breached, the driving observation, and a human-readable reason.
func judge(r *Rule, samples []Sample) (bool, float64, string) {
	switch r.Kind {
	case KindThreshold:
		v := samples[len(samples)-1].V
		if exceeds(r.Cmp, v, r.Value) {
			return true, v, fmt.Sprintf("%s %s %g (threshold %g)", r.Series, cmpWord(r.Cmp), v, r.Value)
		}
		return false, v, ""
	case KindRate:
		w := tailN(samples, r.Window)
		v := Rate(w)
		if exceeds(r.Cmp, v, r.Value) {
			return true, v, fmt.Sprintf("%s rate %.4g/s %s %g/s", r.Series, v, cmpWord(r.Cmp), r.Value)
		}
		return false, v, ""
	case KindCI:
		return judgeCI(r, samples)
	case KindTrend:
		return judgeTrend(r, samples)
	case KindGolden:
		v := samples[len(samples)-1].V
		if r.Value == 0 {
			return false, v, ""
		}
		drift := (v - r.Value) / r.Value
		if abs(drift) > r.RelTol {
			return true, v, fmt.Sprintf("%s %.6g drifted %+.2f%% from golden %.6g (tolerance ±%.2f%%)",
				r.Series, v, drift*100, r.Value, r.RelTol*100)
		}
		return false, v, ""
	}
	return false, 0, ""
}

// judgeCI is the statistical heart: split the window into baseline and
// recent, build a confidence interval over the baseline — Student-t
// over the mean, or bootstrap over the median when Robust — and breach
// when the recent mean leaves the (RelTol-widened) interval in the
// rule's direction. This is exactly how the paper decides two
// measurements differ: non-overlapping 95% intervals, not point
// comparisons.
func judgeCI(r *Rule, samples []Sample) (bool, float64, string) {
	if len(samples) < r.Baseline+r.Window {
		return false, 0, ""
	}
	base := Values(samples[:len(samples)-r.Window])
	recent := Values(samples[len(samples)-r.Window:])
	recentMean := stats.Mean(recent)

	var ci stats.CI
	var err error
	if r.Robust {
		ci, err = stats.BootstrapCI(base, stats.Median, r.Level, 200, 42)
	} else {
		ci, err = stats.ConfidenceInterval(base, r.Level)
	}
	if err != nil {
		return false, recentMean, ""
	}
	lo := ci.Lo() - abs(ci.Mean)*r.RelTol
	hi := ci.Hi() + abs(ci.Mean)*r.RelTol
	kind := "t"
	if r.Robust {
		kind = "bootstrap"
	}
	switch r.Cmp {
	case Above:
		if recentMean > hi {
			return true, recentMean, fmt.Sprintf(
				"%s recent mean %.6g above baseline %d%% %s-CI [%.6g, %.6g] (n=%d)",
				r.Series, recentMean, int(r.Level*100), kind, lo, hi, ci.N)
		}
	case Below:
		if recentMean < lo {
			return true, recentMean, fmt.Sprintf(
				"%s recent mean %.6g below baseline %d%% %s-CI [%.6g, %.6g] (n=%d)",
				r.Series, recentMean, int(r.Level*100), kind, lo, hi, ci.N)
		}
	}
	return false, recentMean, ""
}

// judgeTrend fits a least-squares line through the window (x in
// seconds from the window start) and breaches on sustained relative
// drift: |slope * span| / |mean| beyond the limit, with enough R2 that
// the drift is a trend rather than noise.
func judgeTrend(r *Rule, samples []Sample) (bool, float64, string) {
	w := tailN(samples, r.Window)
	if len(w) < 2 {
		return false, 0, ""
	}
	xs := make([]float64, len(w))
	ys := make([]float64, len(w))
	for i, s := range w {
		xs[i] = s.T.Sub(w[0].T).Seconds()
		ys[i] = s.V
	}
	fit, err := stats.Linregress(xs, ys)
	if err != nil {
		return false, ys[len(ys)-1], ""
	}
	mean := stats.Mean(ys)
	span := xs[len(xs)-1]
	if mean == 0 || span <= 0 {
		return false, ys[len(ys)-1], ""
	}
	drift := fit.Slope * span / abs(mean)
	directional := drift
	if r.Cmp == Below {
		directional = -drift
	}
	if directional > r.Value && fit.R2 >= r.MinR2 {
		return true, drift, fmt.Sprintf(
			"%s drifting %+.2f%% per %ds window (R2 %.2f, limit %.2f%%)",
			r.Series, drift*100, int(span), fit.R2, r.Value*100)
	}
	return false, drift, ""
}

func tailN(samples []Sample, n int) []Sample {
	if len(samples) > n {
		return samples[len(samples)-n:]
	}
	return samples
}

func exceeds(cmp Compare, v, limit float64) bool {
	if cmp == Below {
		return v < limit
	}
	return v > limit
}

func cmpWord(cmp Compare) string {
	if cmp == Below {
		return "below"
	}
	return "above"
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Alerts snapshots every live alert (pending, firing, or resolved),
// firing first, then pending, then resolved, each group sorted by rule
// then backend.
func (d *Detector) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Alert, 0, len(d.alerts))
	for _, a := range d.alerts {
		if a.State == StateInactive {
			continue
		}
		out = append(out, *a)
	}
	rank := func(s AlertState) int {
		switch s {
		case StateFiring:
			return 0
		case StatePending:
			return 1
		default:
			return 2
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := rank(out[i].State), rank(out[j].State); ri != rj {
			return ri < rj
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Backend < out[j].Backend
	})
	return out
}

// FiringCount returns how many alerts are currently firing.
func (d *Detector) FiringCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, a := range d.alerts {
		if a.State == StateFiring {
			n++
		}
	}
	return n
}
