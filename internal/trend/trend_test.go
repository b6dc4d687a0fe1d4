package trend

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/pareto"
	"repro/internal/proc"
	"repro/internal/store"
	"repro/internal/workload"
)

// storedDataset measures every stock configuration of the fleet (which
// includes the four reference cells), seals it into a store, and
// collects it back — the "from stored data alone" path the trend
// pipeline must reproduce drift from.
func storedDataset(t *testing.T) *store.Dataset {
	t.Helper()
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	st := &store.Study{Seed: 42, SealedUnixNano: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC).UnixNano()}
	for _, cp := range proc.StockConfigs() {
		for _, b := range workload.All() {
			m, err := h.Measure(b, cp)
			if err != nil {
				t.Fatal(err)
			}
			st.Rows = append(st.Rows, store.RowFromMeasurement(m))
		}
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(st); err != nil {
		t.Fatal(err)
	}
	d, err := s.Collect(store.Query{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnalyzeGenerations(t *testing.T) {
	d := storedDataset(t)
	rep, err := Analyze(d, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The fleet spans four process nodes; the replay must see all of
	// them, oldest first.
	wantNodes := []int{130, 65, 45, 32}
	var gotNodes []int
	for _, g := range rep.Generations {
		gotNodes = append(gotNodes, g.NodeNM)
	}
	if !reflect.DeepEqual(gotNodes, wantNodes) {
		t.Fatalf("generations = %v, want %v", gotNodes, wantNodes)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("unexpected skipped configs: %v", rep.Skipped)
	}
	if !reflect.DeepEqual(rep.Seeds, []int64{42}) {
		t.Fatalf("seeds = %v, want [42]", rep.Seeds)
	}

	prevPts, prevBest := 0, 0.0
	prevMinE := 0.0
	for i, g := range rep.Generations {
		if len(g.Frontier) == 0 {
			t.Fatalf("%d nm: empty frontier", g.NodeNM)
		}
		// Cumulative replay: the config pool only grows.
		if len(g.Points) <= prevPts && i > 0 {
			t.Fatalf("%d nm: %d points, previous generation had %d", g.NodeNM, len(g.Points), prevPts)
		}
		// A superset of points can only push the frontier outward.
		if i > 0 && g.BestPerf < prevBest {
			t.Fatalf("%d nm: best perf regressed %.4f -> %.4f", g.NodeNM, prevBest, g.BestPerf)
		}
		if i > 0 && g.MinEnergy > prevMinE {
			t.Fatalf("%d nm: min energy regressed %.4f -> %.4f", g.NodeNM, prevMinE, g.MinEnergy)
		}
		if (g.Drift == nil) != (i == 0) {
			t.Fatalf("%d nm: drift presence wrong for generation %d", g.NodeNM, i)
		}
		if g.Drift != nil && g.Drift.BestPerfGain < 0 {
			t.Fatalf("%d nm: negative best-perf gain %.4f under a cumulative pool", g.NodeNM, g.Drift.BestPerfGain)
		}
		if g.FrontierWattsMin > g.FrontierWattsMax {
			t.Fatalf("%d nm: watts range inverted", g.NodeNM)
		}
		if g.PowerSwing < 0 || g.PowerSwing >= 1 {
			t.Fatalf("%d nm: power swing %.4f out of [0,1)", g.NodeNM, g.PowerSwing)
		}
		// Frontier membership marks match the frontier list.
		marked := 0
		for _, p := range g.Points {
			if p.Efficient {
				marked++
			}
		}
		if marked != len(g.Frontier) {
			t.Fatalf("%d nm: %d efficient marks vs %d frontier labels", g.NodeNM, marked, len(g.Frontier))
		}
		prevPts, prevBest, prevMinE = len(g.Points), g.BestPerf, g.MinEnergy
	}

	// The newest generation should actually have moved the frontier:
	// across the language-and-hardware span the 32 nm arrival (i5)
	// displaces or joins, and some drift metric is nonzero.
	last := rep.Generations[len(rep.Generations)-1]
	if last.Drift.NewEfficient == 0 && last.Drift.BestPerfGain == 0 && last.Drift.EnergyReductionAtPerf == 0 {
		t.Fatal("32 nm generation shows no frontier drift at all")
	}

	// Determinism: a second replay over the same dataset is identical.
	rep2, err := Analyze(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("trend replay is not deterministic")
	}

	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if buf.Len() == 0 || bytes.Count(buf.Bytes(), []byte("\n")) < 5 {
		t.Fatalf("table render too short:\n%s", buf.String())
	}
}

func TestAnalyzeSkipsIncomplete(t *testing.T) {
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	st := &store.Study{Seed: 42, SealedUnixNano: 1}
	refs, err := harness.ReferenceCells()
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range refs {
		for _, b := range workload.All() {
			m, err := h.Measure(b, cp)
			if err != nil {
				t.Fatal(err)
			}
			st.Rows = append(st.Rows, store.RowFromMeasurement(m))
		}
	}
	// One extra config with a single benchmark: present but incomplete.
	i7, err := proc.ByName(proc.I7Name)
	if err != nil {
		t.Fatal(err)
	}
	partial := proc.ConfiguredProcessor{Proc: i7, Config: proc.Config{Cores: 2, SMTWays: 1, ClockGHz: i7.Spec.ClockGHz}}
	m, err := h.Measure(workload.All()[0], partial)
	if err != nil {
		t.Fatal(err)
	}
	st.Rows = append(st.Rows, store.RowFromMeasurement(m))

	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(st); err != nil {
		t.Fatal(err)
	}
	d, err := s.Collect(store.Query{})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Analyze(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != partial.String() {
		t.Fatalf("skipped = %v, want exactly the partial config", rep.Skipped)
	}
	total := 0
	for _, g := range rep.Generations {
		for _, p := range g.Points {
			if p.Label == partial.String() {
				t.Fatal("incomplete config leaked into the replay")
			}
		}
		total += len(g.Points)
	}
	if total == 0 {
		t.Fatal("no points replayed from the reference cells")
	}
}

// TestDriftTellsSameLabelPointsApart: i7 4C2T at 2.60 and 2.64 GHz share
// the label "i7 (45) 4C2T@2.6GHz". A frontier that swaps one for the
// other gains one efficient configuration and displaces one.
func TestDriftTellsSameLabelPointsApart(t *testing.T) {
	const label = "i7 (45) 4C2T@2.6GHz"
	prev := []pareto.Point{{Label: label, Perf: 1, Energy: 1}}
	cur := []pareto.Point{{Label: label, Perf: 1.01, Energy: 0.99}}
	if d := driftBetween(prev, cur); d.NewEfficient != 1 || d.Displaced != 1 {
		t.Fatalf("drift counts %d new efficient, %d displaced; want 1 and 1", d.NewEfficient, d.Displaced)
	}
}
