package traceanalytics

import (
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var base = time.Unix(1700000000, 0)

// mkSpan builds one span with millisecond offsets from base.
func mkSpan(trace, id, parent uint64, name string, startMS, durMS float64, attrs ...telemetry.Attr) telemetry.SpanData {
	return telemetry.SpanData{
		Trace:  telemetry.TraceID(trace),
		ID:     telemetry.SpanID(id),
		Parent: telemetry.SpanID(parent),
		Name:   name,
		Start:  base.Add(time.Duration(startMS * 1e6)),
		Dur:    time.Duration(durMS * 1e6),
		Attrs:  attrs,
	}
}

// checkPartition asserts the trace's critical-path invariant: segments
// cover [0, wall] exactly once, in order, and per-stage self times sum
// to the wall time.
func checkPartition(t *testing.T, tr *Trace) {
	t.Helper()
	const eps = 1e-6
	cur := 0.0
	for i, seg := range tr.Critical {
		if math.Abs(seg.OffsetMS-cur) > eps {
			t.Fatalf("segment %d starts at %.6fms, want %.6fms (gap or overlap)", i, seg.OffsetMS, cur)
		}
		if seg.DurMS <= 0 {
			t.Fatalf("segment %d has non-positive duration %.6fms", i, seg.DurMS)
		}
		cur = seg.OffsetMS + seg.DurMS
	}
	if math.Abs(cur-tr.WallMS) > eps {
		t.Fatalf("segments end at %.6fms, wall is %.6fms", cur, tr.WallMS)
	}
	var stageSum float64
	for _, sh := range tr.Stages {
		stageSum += sh.MS
	}
	if math.Abs(stageSum-tr.WallMS) > eps {
		t.Fatalf("stage self-times sum to %.6fms, wall is %.6fms", stageSum, tr.WallMS)
	}
}

func TestAssembleCriticalPathPartition(t *testing.T) {
	// coordinator: MeasureBatch [0,100] -> lease(first) [2,50],
	// lease(steal) [55,95]; backend: http.measure [10,45] under first
	// lease -> cell(miss) [12,40] -> queue [12,15]; second backend:
	// http.measure [60,92] under steal lease -> cell(hit) [62,90].
	spans := []telemetry.SpanData{
		mkSpan(1, 1, 0, "scheduler.MeasureBatch", 0, 100),
		mkSpan(1, 2, 1, "scheduler.lease", 2, 48, telemetry.String("kind", "first")),
		mkSpan(1, 3, 1, "scheduler.lease", 55, 40, telemetry.String("kind", "steal")),
		mkSpan(1, 4, 2, "http.measure", 10, 35),
		mkSpan(1, 5, 4, "service.cell", 12, 28, telemetry.String("outcome", "miss"), telemetry.String("seed", "42")),
		mkSpan(1, 6, 5, "service.queue", 12, 3),
		mkSpan(1, 7, 3, "http.measure", 60, 32),
		mkSpan(1, 8, 7, "service.cell", 62, 28, telemetry.String("outcome", "hit")),
	}
	e := New(Options{})
	e.Ingest("coordinator", spans[:3])
	e.Ingest("http://be-a", spans[3:6])
	e.Ingest("http://be-b", spans[6:])

	tr := e.Trace(1)
	if tr == nil {
		t.Fatal("trace 1 not assembled")
	}
	if tr.Root != "scheduler.MeasureBatch" {
		t.Fatalf("root = %q, want scheduler.MeasureBatch", tr.Root)
	}
	if tr.WallMS != 100 {
		t.Fatalf("wall = %.2fms, want 100", tr.WallMS)
	}
	if tr.Seed != "42" {
		t.Fatalf("seed = %q, want 42", tr.Seed)
	}
	if len(tr.Sources) != 3 {
		t.Fatalf("sources = %v, want 3 entries", tr.Sources)
	}
	checkPartition(t, tr)

	stages := map[string]float64{}
	for _, sh := range tr.Stages {
		stages[sh.Stage] = sh.MS
	}
	// The steal lease [55,95] is covered by http [60,92] and cell
	// [62,90]: lease self = [55,60)+[92,95) = 8ms on steal_redispatch.
	if math.Abs(stages[StageSteal]-8) > 1e-6 {
		t.Fatalf("steal_redispatch self = %.4fms, want 8", stages[StageSteal])
	}
	// Kernel span [12,40] minus queue [12,15] = 25ms of compute.
	if math.Abs(stages[StageKernel]-25) > 1e-6 {
		t.Fatalf("kernel_compute self = %.4fms, want 25", stages[StageKernel])
	}
	if math.Abs(stages[StageQueueWait]-3) > 1e-6 {
		t.Fatalf("queue_wait self = %.4fms, want 3", stages[StageQueueWait])
	}
	// Cache-hit cell [62,90] is a leaf: full 28ms.
	if math.Abs(stages[StageCacheLookup]-28) > 1e-6 {
		t.Fatalf("cache_lookup self = %.4fms, want 28", stages[StageCacheLookup])
	}

	// Every OnCritical span must have self time; their sum equals wall.
	var selfSum float64
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.OnCritical && sp.SelfCritMS <= 0 {
			t.Fatalf("span %s on critical path but no self time", sp.Name)
		}
		if !sp.OnCritical && sp.SelfCritMS != 0 {
			t.Fatalf("span %s off critical path but self=%.4fms", sp.Name, sp.SelfCritMS)
		}
		selfSum += sp.SelfCritMS
	}
	if math.Abs(selfSum-tr.WallMS) > 1e-6 {
		t.Fatalf("span self sum %.4fms != wall %.4fms", selfSum, tr.WallMS)
	}
}

func TestAssembleOrphansAndGaps(t *testing.T) {
	// Two fragments whose parents never arrived, with a hole between
	// them: both become roots, the hole lands on the virtual root as an
	// "other" gap, and the partition invariant still holds.
	e := New(Options{})
	e.Ingest("http://be-a", []telemetry.SpanData{
		mkSpan(7, 1, 99, "http.measure", 0, 10),
		mkSpan(7, 2, 98, "http.measure", 30, 20),
	})
	tr := e.Trace(7)
	if tr == nil {
		t.Fatal("trace not assembled")
	}
	if tr.WallMS != 50 {
		t.Fatalf("wall = %.2fms, want 50 (union extent)", tr.WallMS)
	}
	checkPartition(t, tr)
	var gap float64
	for _, seg := range tr.Critical {
		if seg.Span == "" {
			gap += seg.DurMS
		}
	}
	if math.Abs(gap-20) > 1e-6 {
		t.Fatalf("virtual-root gap = %.4fms, want 20", gap)
	}
}

func TestAssembleSelfLoopAndZeroDur(t *testing.T) {
	// A span naming itself as parent must not recurse forever, and a
	// zero-duration trace still gets a positive wall.
	e := New(Options{})
	e.Ingest("x", []telemetry.SpanData{
		mkSpan(3, 5, 5, "weird.self", 0, 4),
		mkSpan(4, 6, 0, "instant", 0, 0),
	})
	if tr := e.Trace(3); tr == nil || tr.WallMS != 4 {
		t.Fatalf("self-loop trace: %+v", tr)
	}
	tr := e.Trace(4)
	if tr == nil || tr.WallMS <= 0 {
		t.Fatalf("zero-duration trace must have positive wall, got %+v", tr)
	}
	checkPartition(t, tr)
}

func TestStageOf(t *testing.T) {
	cases := []struct {
		span Span
		want string
	}{
		{Span{SpanData: mkSpan(1, 1, 0, "service.cell", 0, 1, telemetry.String("outcome", "hit"))}, StageCacheLookup},
		{Span{SpanData: mkSpan(1, 1, 0, "service.cell", 0, 1, telemetry.String("outcome", "miss"))}, StageKernel},
		{Span{SpanData: mkSpan(1, 1, 0, "service.cell", 0, 1)}, StageKernel},
		{Span{SpanData: mkSpan(1, 1, 0, "service.queue", 0, 1)}, StageQueueWait},
		{Span{SpanData: mkSpan(1, 1, 0, "service.ingest", 0, 1)}, StageIngest},
		{Span{SpanData: mkSpan(1, 1, 0, "scheduler.lease", 0, 1, telemetry.String("kind", "first"))}, StageLease},
		{Span{SpanData: mkSpan(1, 1, 0, "scheduler.lease", 0, 1, telemetry.String("kind", "steal"))}, StageSteal},
		{Span{SpanData: mkSpan(1, 1, 0, "scheduler.lease", 0, 1, telemetry.String("kind", "redispatch"))}, StageSteal},
		{Span{SpanData: mkSpan(1, 1, 0, "scheduler.MeasureBatch", 0, 1)}, StageNetwork},
		{Span{SpanData: mkSpan(1, 1, 0, "http.measure", 0, 1)}, StageNetwork},
		{Span{SpanData: mkSpan(1, 1, 0, "study.commit", 0, 1)}, StageOther},
	}
	for _, c := range cases {
		if got := StageOf(c.span); got != c.want {
			t.Errorf("StageOf(%s %v) = %s, want %s", c.span.Name, c.span.Attrs, got, c.want)
		}
	}
	// Every stage name StageOf can produce must be in Stages().
	known := map[string]bool{}
	for _, s := range Stages() {
		known[s] = true
	}
	for _, c := range cases {
		if !known[c.want] {
			t.Errorf("stage %s missing from Stages()", c.want)
		}
	}
}

func TestIngestDedupTruncationEviction(t *testing.T) {
	e := New(Options{MaxTraces: 2, MaxSpansPerTrace: 3})
	spans := []telemetry.SpanData{
		mkSpan(1, 1, 0, "a", 0, 1),
		mkSpan(1, 2, 1, "b", 0, 1),
	}
	if n := e.Ingest("src", spans); n != 2 {
		t.Fatalf("first ingest added %d, want 2", n)
	}
	// Re-scrape: everything deduped.
	if n := e.Ingest("src", spans); n != 0 {
		t.Fatalf("re-ingest added %d, want 0", n)
	}
	// Overflow the per-trace cap: 3rd accepted, 4th dropped + truncated.
	e.Ingest("src", []telemetry.SpanData{
		mkSpan(1, 3, 1, "c", 0, 1),
		mkSpan(1, 4, 1, "d", 0, 1),
	})
	tr := e.Trace(1)
	if tr == nil || !tr.Truncated || tr.SpanCount != 3 {
		t.Fatalf("truncation: got %+v", tr)
	}
	// Zero ids are ignored.
	if n := e.Ingest("src", []telemetry.SpanData{mkSpan(0, 9, 0, "z", 0, 1), mkSpan(9, 0, 0, "z", 0, 1)}); n != 0 {
		t.Fatalf("zero-id spans added %d, want 0", n)
	}
	// Third distinct trace evicts the oldest (trace 1).
	e.Ingest("src", []telemetry.SpanData{mkSpan(2, 1, 0, "a", 0, 1)})
	e.Ingest("src", []telemetry.SpanData{mkSpan(5, 1, 0, "a", 0, 1)})
	if e.Trace(1) != nil {
		t.Fatal("trace 1 should have been evicted")
	}
	st := e.Stats()
	if st.Evicted != 1 || st.Duplicates != 2 || st.Traces != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestREDStats(t *testing.T) {
	e := New(Options{})
	var spans []telemetry.SpanData
	// 100 spans, 1..100ms, one per 10ms of start time; 5 errors.
	for i := 1; i <= 100; i++ {
		attrs := []telemetry.Attr{}
		if i%20 == 0 {
			attrs = append(attrs, telemetry.String("error", "boom"))
		}
		spans = append(spans, mkSpan(uint64(i), uint64(i), 0, "op", float64(i)*10, float64(i), attrs...))
	}
	e.Ingest("http://be-a", spans)
	red := e.RED()
	if len(red) != 1 {
		t.Fatalf("RED rows = %d, want 1", len(red))
	}
	r := red[0]
	if r.Name != "op" || r.Backend != "http://be-a" {
		t.Fatalf("key = %s/%s", r.Name, r.Backend)
	}
	if r.Count != 100 || r.Errors != 5 {
		t.Fatalf("count=%d errors=%d, want 100/5", r.Count, r.Errors)
	}
	// Starts span 10ms..1000ms => 99 intervals over 0.99s => 100/s.
	if math.Abs(r.RatePerSec-100) > 1e-6 {
		t.Fatalf("rate = %.4f/s, want 100", r.RatePerSec)
	}
	if math.Abs(r.MeanMS-50.5) > 1e-6 {
		t.Fatalf("mean = %.4fms, want 50.5", r.MeanMS)
	}
	if math.Abs(r.P50MS-50.5) > 1e-6 || math.Abs(r.P90MS-90.1) > 1e-6 {
		t.Fatalf("p50=%.4f p90=%.4f, want 50.5/90.1", r.P50MS, r.P90MS)
	}
	if r.P99MS < r.P90MS || r.P99MS > 100 {
		t.Fatalf("p99 = %.4f out of range", r.P99MS)
	}
}

func TestSearchFilters(t *testing.T) {
	e := New(Options{})
	e.Ingest("http://be-a", []telemetry.SpanData{
		mkSpan(1, 1, 0, "scheduler.MeasureBatch", 0, 50, telemetry.String("seed", "42")),
		mkSpan(1, 2, 1, "service.cell", 5, 20),
	})
	e.Ingest("http://be-b", []telemetry.SpanData{
		mkSpan(2, 1, 0, "http.measure", 0, 120, telemetry.String("seed", "7")),
	})
	if got := len(e.Search(Query{})); got != 2 {
		t.Fatalf("unfiltered = %d, want 2", got)
	}
	if got := e.Search(Query{Seed: "42"}); len(got) != 1 || got[0].ID != telemetry.TraceID(1).String() {
		t.Fatalf("seed filter: %v", got)
	}
	if got := e.Search(Query{Backend: "http://be-b"}); len(got) != 1 || got[0].ID != telemetry.TraceID(2).String() {
		t.Fatalf("backend filter: %v", got)
	}
	if got := e.Search(Query{Op: "service.cell"}); len(got) != 1 || got[0].ID != telemetry.TraceID(1).String() {
		t.Fatalf("op filter: %v", got)
	}
	if got := e.Search(Query{MinDur: 100 * time.Millisecond}); len(got) != 1 || got[0].ID != telemetry.TraceID(2).String() {
		t.Fatalf("min-dur filter: %v", got)
	}
	// Slowest first.
	got := e.Search(Query{Limit: 1})
	if len(got) != 1 || got[0].WallMS != 120 {
		t.Fatalf("limit+order: %v", got)
	}
}

func TestStageSharesAndSummary(t *testing.T) {
	e := New(Options{ShareWindow: 8})
	e.Ingest("http://be-a", []telemetry.SpanData{
		mkSpan(1, 1, 0, "http.measure", 0, 40),
		mkSpan(1, 2, 1, "service.cell", 10, 20, telemetry.String("outcome", "miss")),
	})
	shares := e.StageShares(0)
	var total float64
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("stage shares sum to %.6f, want 1", total)
	}
	if math.Abs(shares[StageKernel]-0.5) > 1e-9 || math.Abs(shares[StageNetwork]-0.5) > 1e-9 {
		t.Fatalf("shares = %v, want kernel 0.5 / network 0.5", shares)
	}
	sum := e.Summary(3)
	if sum.Stats.Traces != 1 || len(sum.TopCritical) != 1 || len(sum.RED) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.TopCritical[0].TopStage == "" {
		t.Fatal("digest missing dominant stage")
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	if e.Ingest("x", []telemetry.SpanData{mkSpan(1, 1, 0, "a", 0, 1)}) != 0 {
		t.Fatal("nil Ingest")
	}
	if e.Trace(1) != nil || e.Search(Query{}) != nil {
		t.Fatal("nil reads")
	}
	if e.Stats() != (Stats{}) {
		t.Fatal("nil Stats")
	}
	_ = e.StageShares(0)
	_ = e.Summary(1)
	_ = e.RED()
}
