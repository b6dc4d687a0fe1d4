package monitor

// PushDetector runs the detector state machine over series pushed by
// the caller instead of scraped from a fleet — the in-process face of
// the same alerting brain. The SLO engine uses it to walk burn-rate
// alerts through inactive→pending→firing→resolved with exactly the
// lifecycle, streak, and retention semantics operators already know
// from /v1/alertz, rather than growing a second, subtly different
// state machine.

import (
	"time"

	"repro/internal/telemetry"
)

// PushDetector is a detector over a private push-fed series store.
type PushDetector struct {
	st  *store
	det *Detector
}

// NewPushDetector builds a detector for the given rules over an
// internal store that keeps the monitor's seriesRingCap samples per
// series and resolved alerts for its alertRetention. subsystem names
// the logger.
func NewPushDetector(subsystem string, rules []Rule) *PushDetector {
	st := newStore(seriesRingCap, 64)
	return &PushDetector{
		st:  st,
		det: newDetector(rules, st, telemetry.Logger(subsystem), alertRetention),
	}
}

// Push appends one sample to target's series.
func (p *PushDetector) Push(target, series string, t time.Time, v float64) {
	p.st.push(target, series, Sample{T: t, V: v})
}

// Evaluate runs every rule against every target once, stamping
// transitions with now.
func (p *PushDetector) Evaluate(targets []string, now time.Time) {
	p.det.Evaluate(targets, now)
}

// Alerts snapshots live alerts, firing first (see Detector.Alerts).
func (p *PushDetector) Alerts() []Alert { return p.det.Alerts() }

// FiringCount returns how many alerts are currently firing.
func (p *PushDetector) FiringCount() int { return p.det.FiringCount() }

// Rules returns the rules with defaults applied.
func (p *PushDetector) Rules() []Rule { return p.det.Rules() }

// Last returns the newest pushed value of target's series.
func (p *PushDetector) Last(target, series string) (float64, bool) {
	return p.st.last(target, series)
}
