package cluster

// Per-backend SLO attribution. The scheduler's resilience tactics —
// stealing a stalled lease, re-dispatching a failed one — are exactly
// the moments it pays latency or capacity to cover for one specific
// backend. Counting those interventions per victim turns "the fleet
// burned error budget" into "backend X cost us N steals and M failed
// leases", which is what an SLO post-mortem actually needs. The
// counters ride Stats() like every other scheduler counter.

import "sync/atomic"

// backendAttr holds the interventions charged against one backend.
type backendAttr struct {
	stolenFrom atomic.Int64 // leases stolen from this stalled holder
	leaseFails atomic.Int64 // lease dispatches this holder failed
}

// attribution is a fixed-member attribution table. The member set is
// frozen at construction, so lookups are lock-free reads of an
// immutable map and the counters themselves are atomics.
type attribution struct {
	by map[string]*backendAttr
}

func newAttribution(members []string) *attribution {
	a := &attribution{by: make(map[string]*backendAttr, len(members))}
	for _, m := range members {
		a.by[m] = &backendAttr{}
	}
	return a
}

// get returns the backend's counter block; an unknown name (cannot
// happen for member-derived call sites) gets a discard block so call
// sites stay unconditional.
func (a *attribution) get(backend string) *backendAttr {
	if b, ok := a.by[backend]; ok {
		return b
	}
	return &backendAttr{}
}
