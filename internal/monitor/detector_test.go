package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// seedSeries pushes vals into one series at 1s spacing.
func seedSeries(st *store, backend, key string, vals ...float64) {
	for i, v := range vals {
		st.push(backend, key, Sample{T: ts(i), V: v})
	}
}

func newTestDetector(st *store, rules ...Rule) *Detector {
	return newDetector(rules, st, telemetry.Logger("monitor-test"), time.Minute)
}

const be = "http://backend-a"

func TestThresholdLifecycle(t *testing.T) {
	st := newStore(16, 32)
	rule := Rule{Name: "backend_down", Series: "up", Kind: KindThreshold, Cmp: Below, Value: 1, For: 2, Clear: 2}
	d := newTestDetector(st, rule)

	// Healthy: no alert at all.
	seedSeries(st, be, "up", 1)
	d.Evaluate([]string{be}, ts(0))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("healthy backend raised %v", got)
	}

	// First breach: pending, not yet firing.
	st.push(be, "up", Sample{T: ts(1), V: 0})
	d.Evaluate([]string{be}, ts(1))
	alerts := d.Alerts()
	if len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("after one breach: %+v, want one pending alert", alerts)
	}
	if alerts[0].PendingSince != ts(1) {
		t.Fatalf("PendingSince=%v, want %v", alerts[0].PendingSince, ts(1))
	}

	// Second consecutive breach: firing.
	st.push(be, "up", Sample{T: ts(2), V: 0})
	d.Evaluate([]string{be}, ts(2))
	alerts = d.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("after For breaches: %+v, want firing", alerts)
	}
	if d.FiringCount() != 1 {
		t.Fatalf("FiringCount=%d, want 1", d.FiringCount())
	}
	if !alerts[0].PendingSince.Before(alerts[0].FiringSince) {
		t.Fatalf("lifecycle out of order: pending %v !< firing %v",
			alerts[0].PendingSince, alerts[0].FiringSince)
	}

	// One clean cycle is not enough to resolve.
	st.push(be, "up", Sample{T: ts(3), V: 1})
	d.Evaluate([]string{be}, ts(3))
	if got := d.Alerts(); got[0].State != StateFiring {
		t.Fatalf("after one clean cycle: %v, want still firing", got[0].State)
	}

	// Second clean cycle: resolved, timestamps strictly ordered.
	st.push(be, "up", Sample{T: ts(4), V: 1})
	d.Evaluate([]string{be}, ts(4))
	alerts = d.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateResolved {
		t.Fatalf("after Clear clean cycles: %+v, want resolved", alerts)
	}
	a := alerts[0]
	if !(a.PendingSince.Before(a.FiringSince) && a.FiringSince.Before(a.ResolvedSince)) {
		t.Fatalf("lifecycle timestamps out of order: %v %v %v",
			a.PendingSince, a.FiringSince, a.ResolvedSince)
	}

	// Retention: the resolved alert ages out.
	d.Evaluate([]string{be}, ts(4).Add(2*time.Minute))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("resolved alert survived retention: %+v", got)
	}
}

func TestPendingThatClearsIsNoise(t *testing.T) {
	st := newStore(16, 32)
	d := newTestDetector(st, Rule{Name: "down", Series: "up", Kind: KindThreshold, Cmp: Below, Value: 1, For: 3})

	st.push(be, "up", Sample{T: ts(0), V: 0})
	d.Evaluate([]string{be}, ts(0))
	if got := d.Alerts(); len(got) != 1 || got[0].State != StatePending {
		t.Fatalf("want pending, got %+v", got)
	}
	st.push(be, "up", Sample{T: ts(1), V: 1})
	d.Evaluate([]string{be}, ts(1))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("pending that cleared should vanish, got %+v", got)
	}
}

func TestCIRuleDetectsRegression(t *testing.T) {
	st := newStore(64, 32)
	rule := Rule{
		Name: "latency_regressed", Series: "lat", Kind: KindCI, Cmp: Above,
		Window: 5, Baseline: 20, RelTol: 0.05, For: 1,
	}
	d := newTestDetector(st, rule)

	// Stable baseline with mild alternation, then a 3x step: the recent
	// mean leaves the Student-t interval decisively.
	var vals []float64
	for i := 0; i < 20; i++ {
		vals = append(vals, 0.100+0.002*float64(i%5))
	}
	for i := 0; i < 5; i++ {
		vals = append(vals, 0.300)
	}
	seedSeries(st, be, "lat", vals...)
	d.Evaluate([]string{be}, ts(len(vals)))
	got := d.Alerts()
	if len(got) != 1 || got[0].State != StateFiring {
		t.Fatalf("3x latency step: %+v, want an immediately-firing CI alert (For=1)", got)
	}
	if !strings.Contains(got[0].Reason, "t-CI") {
		t.Fatalf("Reason=%q, want a t-CI explanation", got[0].Reason)
	}

	// The same shape without the step stays quiet.
	st2 := newStore(64, 32)
	d2 := newTestDetector(st2, rule)
	var flat []float64
	for i := 0; i < 25; i++ {
		flat = append(flat, 0.100+0.002*float64(i%5))
	}
	seedSeries(st2, be, "lat", flat...)
	d2.Evaluate([]string{be}, ts(len(flat)))
	if got := d2.Alerts(); len(got) != 0 {
		t.Fatalf("stable series raised %+v", got)
	}
}

func TestCIRuleRobustVariantShrugsOffOutlier(t *testing.T) {
	// One wild outlier in the baseline blows up a t-interval's width but
	// barely moves a bootstrap-of-median interval: the robust rule still
	// catches the regression.
	var vals []float64
	for i := 0; i < 19; i++ {
		vals = append(vals, 0.100+0.001*float64(i%4))
	}
	vals = append(vals, 5.0) // the outlier scrape
	for i := 0; i < 5; i++ {
		vals = append(vals, 0.200)
	}
	st := newStore(64, 32)
	d := newTestDetector(st, Rule{
		Name: "robust", Series: "lat", Kind: KindCI, Cmp: Above,
		Window: 5, Baseline: 20, RelTol: 0.10, Robust: true, For: 1,
	})
	seedSeries(st, be, "lat", vals...)
	d.Evaluate([]string{be}, ts(len(vals)))
	got := d.Alerts()
	if len(got) != 1 {
		t.Fatalf("robust CI missed the regression past an outlier: %+v", got)
	}
	if !strings.Contains(got[0].Reason, "bootstrap") {
		t.Fatalf("Reason=%q, want a bootstrap-CI explanation", got[0].Reason)
	}
}

func TestTrendRule(t *testing.T) {
	st := newStore(64, 32)
	d := newTestDetector(st, Rule{
		Name: "drifting_up", Series: "v", Kind: KindTrend, Cmp: Above,
		Window: 12, Value: 0.10, MinR2: 0.5, For: 1,
	})
	// Clean linear climb: 20% across the window with near-perfect fit.
	var vals []float64
	for i := 0; i < 12; i++ {
		vals = append(vals, 1.0+0.02*float64(i))
	}
	seedSeries(st, be, "v", vals...)
	d.Evaluate([]string{be}, ts(12))
	if got := d.Alerts(); len(got) != 1 {
		t.Fatalf("linear drift: %+v, want one trend alert", got)
	}

	// Pure noise with no slope stays quiet (R2 gate).
	st2 := newStore(64, 32)
	d2 := newTestDetector(st2, Rule{
		Name: "drifting_up", Series: "v", Kind: KindTrend, Cmp: Above,
		Window: 12, Value: 0.10, MinR2: 0.5, For: 1,
	})
	noise := []float64{1, 1.3, 0.8, 1.1, 0.9, 1.2, 1.0, 0.7, 1.3, 1.0, 0.9, 1.1}
	seedSeries(st2, be, "v", noise...)
	d2.Evaluate([]string{be}, ts(12))
	if got := d2.Alerts(); len(got) != 0 {
		t.Fatalf("noise raised a trend alert: %+v", got)
	}
}

func TestWarmupSuppression(t *testing.T) {
	st := newStore(64, 32)
	d := newTestDetector(st, Rule{
		Name: "ci", Series: "lat", Kind: KindCI, Cmp: Above, Window: 5, Baseline: 20, For: 1,
	})
	// 10 samples is under Baseline+Window: the rule must stay silent no
	// matter how wild the values are.
	seedSeries(st, be, "lat", 1, 99, 1, 99, 1, 99, 1, 99, 1, 99)
	d.Evaluate([]string{be}, ts(10))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("warmup window raised %+v", got)
	}
}

func TestAlertsOrdering(t *testing.T) {
	st := newStore(16, 32)
	d := newTestDetector(st,
		Rule{Name: "a_down", Series: "up", Kind: KindThreshold, Cmp: Below, Value: 1, For: 1},
		Rule{Name: "b_slow", Series: "lat", Kind: KindThreshold, Cmp: Above, Value: 1, For: 5},
	)
	be2 := "http://backend-b"
	st.push(be, "up", Sample{T: ts(0), V: 0})
	st.push(be2, "lat", Sample{T: ts(0), V: 2})
	d.Evaluate([]string{be, be2}, ts(0))
	got := d.Alerts()
	if len(got) != 2 {
		t.Fatalf("want 2 alerts, got %+v", got)
	}
	// Firing ranks before pending regardless of rule name.
	if got[0].State != StateFiring || got[0].Rule != "a_down" {
		t.Fatalf("first alert %+v, want firing a_down", got[0])
	}
	if got[1].State != StatePending || got[1].Rule != "b_slow" {
		t.Fatalf("second alert %+v, want pending b_slow", got[1])
	}
}
