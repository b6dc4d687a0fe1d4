package traceanalytics

// Engine is the fleet trace-assembly store: the monitor feeds it raw
// span harvests (one Ingest per backend scrape, plus coordinator
// self-reports), it dedups and groups them per trace, and serves
// assembled waterfalls, critical paths, per-operation RED stats, a
// merged flame hierarchy, and fleet stage shares for the detector.
// All methods are safe for concurrent use.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Options bound the engine's memory. The zero value selects defaults.
type Options struct {
	// MaxTraces bounds retained traces; oldest-first eviction
	// (<=0 selects 256).
	MaxTraces int
	// MaxSpansPerTrace bounds one trace's span set; excess spans are
	// dropped and the trace marked truncated (<=0 selects 1024).
	MaxSpansPerTrace int
	// ShareWindow is how many recent traces feed StageShares (<=0: 32).
	ShareWindow int
}

// maxDurSamples bounds each RED key's duration ring.
const maxDurSamples = 512

func (o Options) withDefaults() Options {
	if o.MaxTraces <= 0 {
		o.MaxTraces = 256
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 1024
	}
	if o.ShareWindow <= 0 {
		o.ShareWindow = 32
	}
	return o
}

type traceBuf struct {
	ids       map[telemetry.SpanID]struct{}
	spans     []Span
	truncated bool
	dirty     bool
	asm       *Trace
}

// Engine assembles and retains fleet traces.
type Engine struct {
	mu     sync.Mutex
	opts   Options
	traces map[telemetry.TraceID]*traceBuf
	order  []telemetry.TraceID // first-seen order, for eviction
	red    map[redKey]*redAgg

	spansSeen int64
	dups      int64
	evicted   int64
}

// New builds an engine.
func New(opts Options) *Engine {
	return &Engine{
		opts:   opts.withDefaults(),
		traces: make(map[telemetry.TraceID]*traceBuf),
		red:    make(map[redKey]*redAgg),
	}
}

// Ingest merges one process's span harvest, tagged with the backend
// (or "coordinator") that reported it. Re-scraping the same retention
// is the common case; spans already seen are deduped by id. Returns
// how many spans were new.
func (e *Engine) Ingest(source string, spans []telemetry.SpanData) int {
	if e == nil || len(spans) == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	added := 0
	for _, d := range spans {
		e.spansSeen++
		if d.Trace == 0 || d.ID == 0 {
			continue
		}
		tb := e.traces[d.Trace]
		if tb == nil {
			if len(e.traces) >= e.opts.MaxTraces {
				e.evictOldestLocked()
			}
			tb = &traceBuf{ids: make(map[telemetry.SpanID]struct{})}
			e.traces[d.Trace] = tb
			e.order = append(e.order, d.Trace)
		}
		if _, dup := tb.ids[d.ID]; dup {
			e.dups++
			continue
		}
		if len(tb.spans) >= e.opts.MaxSpansPerTrace {
			tb.truncated = true
			continue
		}
		tb.ids[d.ID] = struct{}{}
		sp := Span{SpanData: d, Source: source}
		tb.spans = append(tb.spans, sp)
		tb.dirty = true
		e.redFor(d.Name, source).observe(sp)
		added++
	}
	return added
}

func (e *Engine) redFor(name, source string) *redAgg {
	k := redKey{name: name, source: source}
	r := e.red[k]
	if r == nil {
		r = &redAgg{durs: telemetry.NewRing[float64](maxDurSamples)}
		e.red[k] = r
	}
	return r
}

func (e *Engine) evictOldestLocked() {
	for len(e.order) > 0 {
		id := e.order[0]
		e.order = e.order[1:]
		if _, ok := e.traces[id]; ok {
			delete(e.traces, id)
			e.evicted++
			return
		}
	}
}

// assembleLocked returns the cached assembly, rebuilding when new
// spans arrived since the last build.
func (e *Engine) assembleLocked(id telemetry.TraceID, tb *traceBuf) *Trace {
	if tb.dirty || tb.asm == nil {
		tb.asm = assemble(id, tb.spans, tb.truncated)
		tb.dirty = false
	}
	return tb.asm
}

// Trace returns the assembled trace, or nil when unknown.
func (e *Engine) Trace(id telemetry.TraceID) *Trace {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	tb := e.traces[id]
	if tb == nil {
		return nil
	}
	return e.assembleLocked(id, tb)
}

// Query filters assembled traces. Zero fields match everything.
type Query struct {
	Trace   telemetry.TraceID // exact trace id
	Seed    string            // study seed attr
	Backend string            // reported by this source
	Op      string            // contains a span with this name
	MinDur  time.Duration     // wall time at least this long
	Limit   int               // max results (<=0: 20)
}

// Search returns assembled traces matching q, slowest first.
func (e *Engine) Search(q Query) []*Trace {
	if e == nil {
		return nil
	}
	limit := q.Limit
	if limit <= 0 {
		limit = 20
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*Trace
	for _, id := range e.order {
		tb := e.traces[id]
		if tb == nil {
			continue
		}
		if q.Trace != 0 && id != q.Trace {
			continue
		}
		tr := e.assembleLocked(id, tb)
		if tr == nil {
			continue
		}
		if q.Seed != "" && tr.Seed != q.Seed {
			continue
		}
		if q.MinDur > 0 && tr.wall < q.MinDur {
			continue
		}
		if q.Backend != "" && !containsString(tr.Sources, q.Backend) {
			continue
		}
		if q.Op != "" && !traceHasOp(tr, q.Op) {
			continue
		}
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallMS > out[j].WallMS })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

func traceHasOp(tr *Trace, op string) bool {
	for i := range tr.Spans {
		if tr.Spans[i].Name == op {
			return true
		}
	}
	return false
}

// StageShares returns each stage's fraction of critical-path time
// summed over the most recent n retained traces (n<=0 selects the
// configured window). Fractions sum to 1 when any trace is retained.
func (e *Engine) StageShares(n int) map[string]float64 {
	if e == nil {
		return nil
	}
	if n <= 0 {
		n = e.opts.ShareWindow
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	totals := make(map[string]int64, 9)
	var wall int64
	taken := 0
	for i := len(e.order) - 1; i >= 0 && taken < n; i-- {
		tb := e.traces[e.order[i]]
		if tb == nil {
			continue
		}
		tr := e.assembleLocked(e.order[i], tb)
		if tr == nil {
			continue
		}
		for st, ns := range tr.stageNS {
			totals[st] += ns
		}
		wall += int64(tr.wall)
		taken++
	}
	out := make(map[string]float64, len(totals))
	if wall == 0 {
		return out
	}
	for st, ns := range totals {
		out[st] = float64(ns) / float64(wall)
	}
	return out
}

// RED returns every (operation, backend) aggregate, sorted by name
// then backend.
func (e *Engine) RED() []REDStat {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]REDStat, 0, len(e.red))
	for k, r := range e.red {
		out = append(out, r.stat(k))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Backend < out[j].Backend
	})
	return out
}

// Flame merges every retained trace into one name-keyed hierarchy.
// SelfMS aggregates critical-path self time, TotalMS raw span time.
func (e *Engine) Flame() *FlameNode {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	root := &FlameNode{Name: "fleet"}
	for _, id := range e.order {
		tb := e.traces[id]
		if tb == nil {
			continue
		}
		if tr := e.assembleLocked(id, tb); tr != nil {
			root.mergeTrace(tr)
			root.Count++
			root.TotalMS += tr.WallMS
		}
	}
	root.sortDesc()
	return root
}

// Stats counts the engine's intake.
type Stats struct {
	Traces     int   `json:"traces"`
	SpansSeen  int64 `json:"spans_seen"`
	SpansHeld  int64 `json:"spans_held"`
	Duplicates int64 `json:"duplicates"`
	Evicted    int64 `json:"evicted_traces"`
}

// Stats returns intake counters.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{Traces: len(e.traces), SpansSeen: e.spansSeen, Duplicates: e.dups, Evicted: e.evicted}
	for _, tb := range e.traces {
		st.SpansHeld += int64(len(tb.spans))
	}
	return st
}

// Summary is the one-call overview behind /v1/traceview and the
// dashboard panel.
type Summary struct {
	Stats       Stats        `json:"stats"`
	StageShares []StageShare `json:"stage_shares,omitempty"`
	TopCritical []Digest     `json:"top_critical,omitempty"`
	RED         []REDStat    `json:"red,omitempty"`
}

// Summary assembles the overview: fleet stage shares over the share
// window, the topTraces slowest traces, and every RED aggregate.
func (e *Engine) Summary(topTraces int) Summary {
	if e == nil {
		return Summary{}
	}
	if topTraces <= 0 {
		topTraces = 5
	}
	s := Summary{Stats: e.Stats(), RED: e.RED()}
	shares := e.StageShares(0)
	for _, st := range Stages() {
		if shares[st] <= 0 {
			continue
		}
		s.StageShares = append(s.StageShares, StageShare{Stage: st, Frac: shares[st]})
	}
	sort.SliceStable(s.StageShares, func(i, j int) bool { return s.StageShares[i].Frac > s.StageShares[j].Frac })
	for _, tr := range e.Search(Query{Limit: topTraces}) {
		s.TopCritical = append(s.TopCritical, tr.Digest())
	}
	return s
}
