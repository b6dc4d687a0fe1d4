package slo

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// clock is a fake time source the tests advance by hand.
type clock struct{ t time.Time }

func (c *clock) now() time.Time       { return c.t }
func (c *clock) step(d time.Duration) { c.t = c.t.Add(d) }

func testConfig(clk *clock, objs ...Objective) Config {
	return Config{
		Objectives:   objs,
		Resolution:   time.Second,
		BudgetWindow: 2 * time.Minute,
		FastShort:    5 * time.Second,
		FastLong:     20 * time.Second,
		SlowShort:    40 * time.Second,
		SlowLong:     80 * time.Second,
		FastBurn:     10,
		SlowBurn:     1,
		For:          2,
		Clear:        2,
		ExemplarCap:  4,
		Now:          clk.now,
	}
}

func latencyObjective() Objective {
	return Objective{
		Name:             "measure-latency",
		Kind:             KindLatency,
		Target:           0.99,
		LatencyThreshold: 50 * time.Millisecond,
	}
}

func findAlert(alerts []monitor.Alert, target, rule string) (monitor.Alert, bool) {
	for _, a := range alerts {
		if a.Backend == target && a.Rule == rule {
			return a, true
		}
	}
	return monitor.Alert{}, false
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Objectives: []Objective{{Name: "x", Target: 1.5}}}); err == nil {
		t.Fatal("target outside (0,1) accepted")
	}
	if _, err := New(Config{Objectives: []Objective{
		{Name: "x", Target: 0.9}, {Name: "x", Target: 0.9},
	}}); err == nil {
		t.Fatal("duplicate objective accepted")
	}
}

// TestBurnRateLifecycle drives the latency SLO through the full alert
// lifecycle: healthy traffic (inactive), a sustained all-bad episode
// (pending, then firing with exemplars), then recovery (resolved).
func TestBurnRateLifecycle(t *testing.T) {
	clk := &clock{t: time.Unix(1_754_000_000, 0)}
	e, err := New(testConfig(clk, latencyObjective()))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy phase: 10 ticks of fast requests.
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			e.ObserveLatency("measure-latency", 5*time.Millisecond, telemetry.TraceID(1000+uint64(i*20+j)))
		}
		clk.step(time.Second)
		e.Advance(clk.t)
	}
	snap := e.Snapshot(clk.t)
	if got := snap.Objectives[0].AlertState; got != "inactive" {
		t.Fatalf("healthy traffic left alert state %q", got)
	}
	if snap.Objectives[0].Burn.Fast != 0 {
		t.Fatalf("healthy fast burn = %v", snap.Objectives[0].Burn.Fast)
	}
	if snap.Objectives[0].BudgetRemaining != 1 {
		t.Fatalf("healthy budget = %v", snap.Objectives[0].BudgetRemaining)
	}

	// Breach phase: every request blows the threshold. Burn over any
	// window climbs to 1/(1-0.99) = 100 >> the fast threshold of 10.
	var pendingSeen, firingSeen bool
	for i := 0; i < 25; i++ {
		for j := 0; j < 20; j++ {
			e.ObserveLatency("measure-latency", 400*time.Millisecond, telemetry.TraceID(0xabc000+uint64(i*20+j)))
		}
		clk.step(time.Second)
		e.Advance(clk.t)
		if a, ok := findAlert(e.Alerts(), "measure-latency", RuleFastBurn); ok {
			switch a.State {
			case monitor.StatePending:
				pendingSeen = true
			case monitor.StateFiring:
				firingSeen = true
			}
		}
	}
	if !pendingSeen || !firingSeen {
		t.Fatalf("breach phase: pending=%v firing=%v", pendingSeen, firingSeen)
	}

	snap = e.Snapshot(clk.t)
	obj := snap.Objectives[0]
	if obj.AlertState != "firing" {
		t.Fatalf("breach alert state = %q", obj.AlertState)
	}
	if obj.Burn.Fast < 10 {
		t.Fatalf("breach fast burn = %v", obj.Burn.Fast)
	}
	if obj.BudgetRemaining >= 1 {
		t.Fatalf("breach left budget untouched: %v", obj.BudgetRemaining)
	}
	if len(obj.Exemplars) == 0 {
		t.Fatal("breach retained no exemplars")
	}
	if len(obj.Exemplars) > 4 {
		t.Fatalf("exemplar cap ignored: %d retained", len(obj.Exemplars))
	}
	// Newest first, and each one carries a resolvable trace id.
	for _, ex := range obj.Exemplars {
		if ex.TraceID == "" || ex.Seconds < 0.4 {
			t.Fatalf("bad exemplar: %+v", ex)
		}
	}
	// The firing alert itself links the traces.
	var firing *AlertStatus
	for i := range snap.Alerts {
		if snap.Alerts[i].Rule == RuleFastBurn && snap.Alerts[i].Backend == "measure-latency" {
			firing = &snap.Alerts[i]
		}
	}
	if firing == nil || firing.State != monitor.StateFiring {
		t.Fatalf("fast burn alert missing from snapshot: %+v", snap.Alerts)
	}
	if len(firing.Exemplars) == 0 {
		t.Fatal("firing alert carries no exemplar traces")
	}

	// Recovery: fast traffic again. Once the short windows slide past
	// the episode, min(short, long) collapses and the alert resolves.
	resolved := false
	for i := 0; i < 40 && !resolved; i++ {
		for j := 0; j < 20; j++ {
			e.ObserveLatency("measure-latency", 5*time.Millisecond, telemetry.TraceID(0xdef000+uint64(i*20+j)))
		}
		clk.step(time.Second)
		e.Advance(clk.t)
		if a, ok := findAlert(e.Alerts(), "measure-latency", RuleFastBurn); ok && a.State == monitor.StateResolved {
			resolved = true
		}
	}
	if !resolved {
		t.Fatal("fast burn alert never resolved after recovery")
	}
}

// TestAvailabilityAndBreachRecording exercises the plain Observe feed
// plus RecordBreach exemplars.
func TestAvailabilityAndBreachRecording(t *testing.T) {
	clk := &clock{t: time.Unix(1_754_000_000, 0)}
	avail := Objective{Name: "availability", Kind: KindAvailability, Target: 0.95}
	e, err := New(testConfig(clk, avail))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			good := j != 0 // 10% errors: burn = 0.1/0.05 = 2 < fast threshold 10
			e.Observe("availability", good)
			if !good {
				e.RecordBreach("availability", telemetry.TraceID(0x500+uint64(i)), 0)
			}
		}
		clk.step(time.Second)
		e.Advance(clk.t)
	}
	snap := e.Snapshot(clk.t)
	obj := snap.Objectives[0]
	if obj.Burn.FastShort < 1.9 || obj.Burn.FastShort > 2.1 {
		t.Fatalf("10%% errors at target 0.95: fast-short burn = %v", obj.Burn.FastShort)
	}
	// Slow pair threshold is 1: burn 2 > 1 should walk the slow rule up.
	if a, ok := findAlert(e.Alerts(), "availability", RuleSlowBurn); !ok || a.State == monitor.StateInactive {
		t.Fatalf("slow burn rule idle despite burn 2: %+v", e.Alerts())
	}
	if len(obj.Exemplars) == 0 {
		t.Fatal("RecordBreach left no exemplars")
	}
	if obj.Compliance < 0.89 || obj.Compliance > 0.91 {
		t.Fatalf("compliance = %v", obj.Compliance)
	}
	// 10% errors against a 5% budget: the whole budget is spent twice over.
	if obj.BudgetRemaining > -0.9 {
		t.Fatalf("budget remaining = %v", obj.BudgetRemaining)
	}
	// Unknown objectives must be a no-op, not a panic.
	e.Observe("no-such-objective", true)
	e.ObserveLatency("no-such-objective", time.Second, 1)
	e.RecordBreach("no-such-objective", 1, 0)
}

// TestDurabilitySource samples cumulative counters at each tick.
func TestDurabilitySource(t *testing.T) {
	clk := &clock{t: time.Unix(1_754_000_000, 0)}
	var good, total atomic.Int64
	obj := Objective{
		Name:   "ingest-durability",
		Kind:   KindDurability,
		Target: 0.999,
		Source: func() (int64, int64) { return good.Load(), total.Load() },
	}
	e, err := New(testConfig(clk, obj))
	if err != nil {
		t.Fatal(err)
	}
	// Baseline tick before any rows so window deltas cover everything
	// the engine's lifetime saw.
	e.Advance(clk.t)
	// 1000 rows/tick, all committed.
	for i := 0; i < 10; i++ {
		good.Add(1000)
		total.Add(1000)
		clk.step(time.Second)
		e.Advance(clk.t)
	}
	snap := e.Snapshot(clk.t)
	if snap.Objectives[0].Burn.Fast != 0 {
		t.Fatalf("lossless ingest burn = %v", snap.Objectives[0].Burn.Fast)
	}
	// Drop everything for a stretch.
	for i := 0; i < 10; i++ {
		total.Add(1000)
		clk.step(time.Second)
		e.Advance(clk.t)
	}
	snap = e.Snapshot(clk.t)
	if snap.Objectives[0].Burn.FastShort < 100 {
		t.Fatalf("total loss at target 0.999: fast-short burn = %v", snap.Objectives[0].Burn.FastShort)
	}
	if snap.Objectives[0].Total != 20000 || snap.Objectives[0].Good != 10000 {
		t.Fatalf("window counts good=%d total=%d", snap.Objectives[0].Good, snap.Objectives[0].Total)
	}
}

// TestAdvanceCatchUp: a long idle gap must not replay thousands of
// ticks, and the engine must stay correct afterwards.
func TestAdvanceCatchUp(t *testing.T) {
	clk := &clock{t: time.Unix(1_754_000_000, 0)}
	e, err := New(testConfig(clk, latencyObjective()))
	if err != nil {
		t.Fatal(err)
	}
	e.Advance(clk.t)
	clk.step(3 * time.Hour) // 10800 missed ticks at 1s resolution
	done := make(chan struct{})
	go func() {
		e.Advance(clk.t)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance stuck replaying idle ticks")
	}
	e.ObserveLatency("measure-latency", time.Millisecond, 1)
	clk.step(time.Second)
	snap := e.Snapshot(clk.t)
	if snap.Objectives[0].Total == 0 {
		t.Fatal("engine dead after catch-up")
	}
}

// TestWriteMetricsLintsAndParses: the /metricsz exposition the monitor
// federates must be lint-clean and machine-parseable.
func TestWriteMetricsLintsAndParses(t *testing.T) {
	clk := &clock{t: time.Unix(1_754_000_000, 0)}
	e, err := New(testConfig(clk,
		latencyObjective(),
		Objective{Name: "availability", Kind: KindAvailability, Target: 0.95},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e.ObserveLatency("measure-latency", 400*time.Millisecond, telemetry.TraceID(uint64(i+1)))
		e.Observe("availability", i%2 == 0)
		clk.step(time.Second)
		e.Advance(clk.t)
	}
	var b strings.Builder
	telemetry.RenderPrometheus(&b, e.Families(clk.t))
	page := b.String()

	if problems := telemetry.LintPrometheus(page); len(problems) != 0 {
		t.Fatalf("slo exposition fails lint: %v\n%s", problems, page)
	}
	fams, err := telemetry.ParsePrometheus(page)
	if err != nil {
		t.Fatalf("slo exposition unparseable: %v\n%s", err, page)
	}
	want := map[string]bool{
		"slo_error_budget_remaining": false,
		"slo_compliance":             false,
		"slo_burn_rate":              false,
		"slo_alert_state":            false,
	}
	for _, f := range fams {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("family %s missing from exposition:\n%s", name, page)
		}
	}
	if !strings.Contains(page, `slo_burn_rate{objective="measure-latency",window="fast"}`) {
		t.Fatalf("burn gauge missing objective/window labels:\n%s", page)
	}
}

// fakePinner records pin reference counts so the exemplar lifecycle is
// observable without a real tracer.
type fakePinner struct {
	mu   sync.Mutex
	refs map[telemetry.TraceID]int
	pins int
}

func (p *fakePinner) Pin(id telemetry.TraceID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refs == nil {
		p.refs = make(map[telemetry.TraceID]int)
	}
	p.refs[id]++
	p.pins++
}

func (p *fakePinner) Unpin(id telemetry.TraceID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refs[id]--
	if p.refs[id] < 0 {
		panic("unpin without pin")
	}
	if p.refs[id] == 0 {
		delete(p.refs, id)
	}
}

func (p *fakePinner) live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.refs)
}

// TestExemplarPinLifecycle is the regression for the dangling exemplar
// link: every breach exemplar pins its trace, cap-trimmed exemplars
// release theirs immediately, and once the objective's alerts resolve
// every remaining pin is released — no leaks, no double-unpins.
func TestExemplarPinLifecycle(t *testing.T) {
	clk := &clock{t: time.Unix(1_754_000_000, 0)}
	pinner := &fakePinner{}
	cfg := testConfig(clk, latencyObjective())
	cfg.Pinner = pinner
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Breach phase: far more breaches than the exemplar cap of 4.
	fired := false
	for i := 0; i < 25; i++ {
		for j := 0; j < 20; j++ {
			e.ObserveLatency("measure-latency", 400*time.Millisecond, telemetry.TraceID(0xaa00+uint64(i*20+j)+1))
		}
		clk.step(time.Second)
		e.Advance(clk.t)
		if a, ok := findAlert(e.Alerts(), "measure-latency", RuleFastBurn); ok && a.State == monitor.StateFiring {
			fired = true
		}
	}
	if !fired {
		t.Fatal("breach phase never fired")
	}
	if got := pinner.live(); got != 4 {
		t.Fatalf("%d traces pinned while firing, want exemplar cap 4", got)
	}
	if pinner.pins != 25*20 {
		t.Fatalf("pins = %d, want one per breach (%d)", pinner.pins, 25*20)
	}

	// Recovery: pins are held while ANY burn alert for the objective is
	// still pending or firing (the fast rule resolves well before the
	// slow rule's longer windows drain), and released on the falling
	// edge once the last one clears.
	quiet := false
	for i := 0; i < 200 && !quiet; i++ {
		for j := 0; j < 20; j++ {
			e.ObserveLatency("measure-latency", 5*time.Millisecond, 0)
		}
		clk.step(time.Second)
		e.Advance(clk.t)
		quiet = true
		for _, a := range e.Alerts() {
			if a.Backend == "measure-latency" && (a.State == monitor.StatePending || a.State == monitor.StateFiring) {
				quiet = false
			}
		}
	}
	if !quiet {
		t.Fatal("burn alerts never cleared")
	}
	if got := pinner.live(); got != 0 {
		t.Fatalf("%d traces still pinned after resolution", got)
	}
	// The exemplars themselves stay listed for the resolved page.
	snap := e.Snapshot(clk.t)
	if len(snap.Objectives[0].Exemplars) == 0 {
		t.Fatal("resolution erased the exemplar list")
	}
	// A fresh breach episode pins again (the falling edge resets).
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			e.ObserveLatency("measure-latency", 400*time.Millisecond, telemetry.TraceID(0xbb00+uint64(i*20+j)+1))
		}
		clk.step(time.Second)
		e.Advance(clk.t)
	}
	if got := pinner.live(); got == 0 {
		t.Fatal("second breach episode pinned nothing")
	}
}

// linearAt is the lookup at's binary search replaced: a scan from the
// oldest snapshot, kept as the reference the search must agree with.
func linearAt(obj *objective, cutoff time.Time) (cumSample, bool) {
	best, found := obj.ring.At(0), obj.ring.Len() > 0
	for i := 1; i < obj.ring.Len(); i++ {
		s := obj.ring.At(i)
		if s.t.After(cutoff) {
			break
		}
		best = s
	}
	return best, found
}

// TestAtMatchesLinearScan: over random rings of strictly increasing
// snapshot times (empty, one sample, partly filled, full and wrapped),
// at returns exactly the snapshot a scan from the oldest returns, for
// cutoffs before, on, between and after the retained times.
func TestAtMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(1_700_000_000, 0)
	for trial := 0; trial < 2000; trial++ {
		capacity := 1 + rng.Intn(16)
		obj := &objective{ring: telemetry.NewRing[cumSample](capacity)}
		ts := base
		var times []time.Time
		for i, pushes := 0, rng.Intn(3*capacity+1); i < pushes; i++ {
			// A resolution step or a longer jump, as Advance takes.
			ts = ts.Add(time.Duration(1+rng.Intn(3)) * time.Second)
			obj.ring.Push(cumSample{t: ts, good: int64(i), total: int64(2 * i)})
			times = append(times, ts)
		}
		cutoffs := []time.Time{base, ts.Add(time.Hour)}
		for _, at := range times {
			cutoffs = append(cutoffs, at, at.Add(-time.Nanosecond), at.Add(time.Nanosecond))
		}
		for _, c := range cutoffs {
			got, gotOK := obj.at(c)
			want, wantOK := linearAt(obj, c)
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d (capacity %d, %d retained), cutoff %v: at = %+v %v, scan = %+v %v",
					trial, capacity, obj.ring.Len(), c.Sub(base), got, gotOK, want, wantOK)
			}
		}
	}
}

var snapshotSink Snapshot

// BenchmarkSnapshotFullRing reads a snapshot (what /v1/sloz and
// /metricsz do) with the default configuration's 72 h ring full:
// 25,922 cumulative snapshots at the 10 s resolution, and five window
// lookups per objective per read.
func BenchmarkSnapshotFullRing(b *testing.B) {
	clk := &clock{t: time.Unix(1_700_000_000, 0)}
	e, err := New(Config{Objectives: []Objective{latencyObjective()}, Now: clk.now})
	if err != nil {
		b.Fatal(err)
	}
	obj := e.objs[0]
	n := int(e.cfg.SlowLong/e.cfg.Resolution) + 2
	for i := 0; i < n; i++ {
		clk.step(e.cfg.Resolution)
		obj.ring.Push(cumSample{t: clk.t, good: int64(99 * i), total: int64(100 * i)})
	}
	if obj.ring.Len() != n {
		b.Fatalf("ring holds %d snapshots, want %d", obj.ring.Len(), n)
	}
	e.lastTick = clk.t // the read below must not tick
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = e.Snapshot(clk.t)
	}
}
