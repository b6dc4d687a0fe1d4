package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/workload"
)

// testRow fabricates a deterministic row from an index, exercising
// negative, subnormal-ish, and non-round float values so the bit-exact
// round-trip claim is actually tested.
func testRow(i int) Row {
	f := float64(i)
	return Row{
		Benchmark: []string{"mcf", "lusearch", "bloat", "fft"}[i%4],
		Processor: []string{proc.I7Name, proc.AtomD45Name, proc.Pentium4Name}[i%3],
		Cores:     1 + i%4,
		SMTWays:   1 + i%2,
		ClockGHz:  2.661 + f*0.133,
		Turbo:     i%5 == 0,
		Runs:      3 + i%20,
		Seconds:   1.0/3.0 + f*0.77,
		Watts:     23.456789 * (1 + f/97),
		EnergyJ:   math.Pi * f,
		TimeCI:    CI{Mean: 1.1 * f, Half: 0.01 * f, Level: 0.95, N: 3 + i%20},
		PowerCI:   CI{Mean: 23.4 * f, Half: 0.2 * f, Level: 0.95, N: 3 + i%20},
		Counters: counters.Counters{
			Cycles:              1e9 + f,
			Instructions:        2e9 + f,
			AppInstructions:     1.9e9 + f,
			ServiceInstructions: 1e8 - f,
			LLCMisses:           1e6 * f,
			DTLBMisses:          5e5 + f,
			BranchInstructions:  3e8 + f,
		},
	}
}

func testStudy(seed int64, sealed int64, n int) *Study {
	st := &Study{Seed: seed, SealedUnixNano: sealed}
	for i := 0; i < n; i++ {
		st.Rows = append(st.Rows, testRow(i))
	}
	return st
}

func TestSegmentRoundTrip(t *testing.T) {
	st := testStudy(42, 1700000000000000001, 61)
	st.ID = studyID(st)
	buf, err := encodeSegment(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeSegment(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("decoded study differs from encoded study")
	}
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := testStudy(42, time.Now().UnixNano(), 12)
	b := testStudy(7, time.Now().UnixNano()+1, 8)
	idA, err := s.Append(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	if idA == 0 {
		t.Fatal("append assigned zero study id")
	}

	// Reopen: the index must rebuild from footers alone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	metas := s2.Studies()
	if len(metas) != 2 {
		t.Fatalf("got %d studies after reopen, want 2", len(metas))
	}
	got, err := s2.Load(metas[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, a.Rows) {
		t.Fatal("study A rows not bit-identical after reopen")
	}

	st := s2.Stats()
	if st.Segments != 2 || st.Rows != 20 {
		t.Fatalf("stats = %+v, want 2 segments / 20 rows", st)
	}
	if st.LastSealUnix == 0 {
		t.Fatal("stats missing last seal time")
	}

	// The advisory index file exists and lists both segments.
	idx, err := os.ReadFile(filepath.Join(dir, IndexName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(idx), "\n"); lines != 4 { // 2 comments + 2 segments
		t.Fatalf("index file has %d lines, want 4:\n%s", lines, idx)
	}
}

// TestAppendDeferSyncGroupCommit covers the ingest writer's group
// commit: deferred-sync seals are immediately readable and survive a
// reopen once Sync ran, with the advisory index rewritten at the sync
// rather than per seal.
func TestAppendDeferSyncGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testStudy(42, 1700000000000000001, 7)
	b := testStudy(42, 1700000000000000002, 9)
	if _, err := s.AppendDeferSync(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDeferSync(b); err != nil {
		t.Fatal(err)
	}

	// Both seals are visible to readers before any fsync.
	if st := s.Stats(); st.Segments != 2 || st.Rows != 16 {
		t.Fatalf("stats before sync = %+v, want 2 segments / 16 rows", st)
	}
	metas := s.Studies()
	if len(metas) != 2 {
		t.Fatalf("%d studies listed before sync, want 2", len(metas))
	}
	got, err := s.Load(metas[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, b.Rows) {
		t.Fatal("deferred-sync study not bit-identical on read-back")
	}

	// The advisory index is deferred with the fsync.
	if _, err := os.Stat(filepath.Join(dir, IndexName)); err == nil {
		if idx, _ := os.ReadFile(filepath.Join(dir, IndexName)); strings.Count(string(idx), "\n") > 2 {
			t.Fatal("index rewritten per deferred seal, want deferred to Sync")
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, IndexName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(idx), "\n"); lines != 4 { // 2 comments + 2 segments
		t.Fatalf("index after Sync has %d lines, want 4:\n%s", lines, idx)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Segments != 2 || st.Rows != 16 || st.TruncatedTail != 0 {
		t.Fatalf("stats after reopen = %+v, want 2 clean segments", st)
	}
}

func TestQueryFilters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	if _, err := s.Append(testStudy(42, base.UnixNano(), 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testStudy(7, base.Add(time.Hour).UnixNano(), 12)); err != nil {
		t.Fatal(err)
	}

	seed42 := int64(42)
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 24},
		{"seed", Query{Seed: &seed42}, 12},
		{"processor", Query{Processor: proc.I7Name}, 8},
		{"benchmark", Query{Benchmark: "mcf"}, 6},
		// The fabricated clock varies per row index, so one config
		// matches exactly its index's row in each of the two studies.
		{"config", Query{Config: func() string { r := testRow(0); return r.ConfigString() }()}, 2},
		{"since", Query{Since: base.Add(time.Minute)}, 12},
		{"until", Query{Until: base.Add(time.Minute)}, 12},
		{"none", Query{Processor: "nope"}, 0},
	}
	for _, tc := range cases {
		rows, err := s.Rows(tc.q, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != tc.want {
			t.Errorf("%s: got %d rows, want %d", tc.name, len(rows), tc.want)
		}
	}

	// Limit caps the result.
	rows, err := s.Rows(Query{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit 5 returned %d rows", len(rows))
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testStudy(42, time.Now().UnixNano(), 4)); err != nil {
		t.Fatal(err)
	}
	// Leave a torn tail behind the sealed segment.
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(segMagic + "partial"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s.Close()

	before, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got := len(ro.Studies()); got != 1 {
		t.Fatalf("read-only open indexed %d studies, want 1", got)
	}
	if _, err := ro.Append(testStudy(1, 1, 1)); err == nil {
		t.Fatal("append on read-only store succeeded")
	}
	after, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("read-only open changed the log size: %d -> %d", before.Size(), after.Size())
	}
	if ro.Stats().TruncatedTail == 0 {
		t.Fatal("read-only stats should report the ignored tail")
	}
}

// TestDatasetAggregateMatchesLive stores a real measured slice of the
// study (the four reference processors plus i7 4C2T at 2.60 and at 2.64
// GHz, two configurations that share the label "4C2T@2.6GHz", all 61
// benchmarks), then checks the store-side aggregation — reference
// rebuild plus harness.AggregateConfig over stored rows — keeps all six
// configurations and is bit-identical to aggregating the live
// measurements directly.
func TestDatasetAggregateMatchesLive(t *testing.T) {
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := harness.ReferenceCells()
	if err != nil {
		t.Fatal(err)
	}
	i7, err := proc.ByName(proc.I7Name)
	if err != nil {
		t.Fatal(err)
	}
	cps := refs
	for _, ghz := range []float64{2.60, 2.64} {
		cps = append(cps, proc.ConfiguredProcessor{Proc: i7, Config: proc.Config{Cores: 4, SMTWays: 2, ClockGHz: ghz}})
	}

	st := &Study{Seed: 42, SealedUnixNano: time.Now().UnixNano()}
	for _, cp := range cps {
		for _, b := range workload.All() {
			m, err := h.Measure(b, cp)
			if err != nil {
				t.Fatal(err)
			}
			st.Rows = append(st.Rows, RowFromMeasurement(m))
		}
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(st); err != nil {
		t.Fatal(err)
	}

	d, err := s.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cells() != len(cps)*61 {
		t.Fatalf("dataset holds %d cells, want %d", d.Cells(), len(cps)*61)
	}
	got, skipped, err := d.Aggregate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected incomplete configs: %v", skipped)
	}
	if len(got) != len(cps) {
		t.Fatalf("aggregated %d configs, want %d", len(got), len(cps))
	}

	ref, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res.CP.Config != cps[i].Config {
			t.Fatalf("aggregate %d is %s, want %s", i, res.CP, cps[i])
		}
		live, err := harness.AggregateConfig(res.CP, h.Measure, ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerfW != live.PerfW || res.WattsW != live.WattsW || res.EnergyW != live.EnergyW ||
			res.PerfB != live.PerfB || res.WattsB != live.WattsB || res.EnergyB != live.EnergyB {
			t.Fatalf("%s: stored aggregate differs from live:\nstored %+v\nlive   %+v", res.CP, res, live)
		}
	}
}
