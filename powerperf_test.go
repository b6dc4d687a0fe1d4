package powerperf

import (
	"context"
	"sync"
	"testing"
)

var (
	testOnce  sync.Once
	testStudy *Study
	testErr   error
)

func testingStudy(t *testing.T) *Study {
	t.Helper()
	testOnce.Do(func() { testStudy, testErr = NewStudy(42) })
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testStudy
}

func TestPublicCatalogues(t *testing.T) {
	if got := len(Fleet()); got != 8 {
		t.Fatalf("Fleet = %d processors, want 8", got)
	}
	if got := len(Benchmarks()); got != 61 {
		t.Fatalf("Benchmarks = %d, want 61", got)
	}
	if got := len(ConfigSpace()); got != 45 {
		t.Fatalf("ConfigSpace = %d, want 45", got)
	}
	if got := len(ConfigSpace45nm()); got != 29 {
		t.Fatalf("ConfigSpace45nm = %d, want 29", got)
	}
	if got := len(StockConfigs()); got != 8 {
		t.Fatalf("StockConfigs = %d, want 8", got)
	}
	if got := len(Groups()); got != 4 {
		t.Fatalf("Groups = %d, want 4", got)
	}
	if got := len(BenchmarksByGroup(NativeNonScalable)); got != 27 {
		t.Fatalf("SPEC CPU2006 group = %d benchmarks, want 27", got)
	}
}

func TestPublicLookups(t *testing.T) {
	p, err := ProcessorByName(I7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.TDPWatts != 130 {
		t.Fatalf("i7 TDP = %v", p.Spec.TDPWatts)
	}
	if _, err := ProcessorByName("nope"); err == nil {
		t.Fatal("unknown processor accepted")
	}
	b, err := BenchmarkByName("lusearch")
	if err != nil {
		t.Fatal(err)
	}
	if b.Group != JavaScalable {
		t.Fatalf("lusearch group = %v", b.Group)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestStudyMeasureAndAggregate(t *testing.T) {
	s := testingStudy(t)
	b, err := BenchmarkByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	atom, err := ProcessorByName(Atom45)
	if err != nil {
		t.Fatal(err)
	}
	cp := ConfiguredProcessor{Proc: atom, Config: atom.Stock()}
	m, err := s.Measure(b, cp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Watts <= 0 || m.Watts > atom.Spec.TDPWatts {
		t.Fatalf("Atom power %v outside (0, TDP]", m.Watts)
	}
	res, err := s.MeasureConfig(cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfW <= 0 || res.PerfW > 1 {
		t.Fatalf("Atom weighted perf %v, want below reference", res.PerfW)
	}
	if s.Reference() == nil {
		t.Fatal("nil reference")
	}
}

func TestStudyNilGuards(t *testing.T) {
	var s *Study
	if _, err := s.Measure(nil, ConfiguredProcessor{}); err == nil {
		t.Fatal("nil study accepted")
	}
	if _, err := s.MeasureConfig(ConfiguredProcessor{}); err == nil {
		t.Fatal("nil study accepted")
	}
}

func TestStudyValidateRig(t *testing.T) {
	s := testingStudy(t)
	reports, err := s.ValidateRig([]float64{0.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 8 {
		t.Fatalf("%d sensor reports, want 8", len(reports))
	}
	for _, r := range reports {
		if r.R2 < 0.999 {
			t.Errorf("%s: calibration R2 %v below the paper's threshold", r.Machine, r.R2)
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	a, err := NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := BenchmarkByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	i5, err := ProcessorByName(I5)
	if err != nil {
		t.Fatal(err)
	}
	cp := ConfiguredProcessor{Proc: i5, Config: i5.Stock()}
	ma, err := a.Measure(bench, cp)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Measure(bench, cp)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Seconds != mb.Seconds || ma.Watts != mb.Watts {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", ma.Seconds, ma.Watts, mb.Seconds, mb.Watts)
	}
}

func TestStudyExperimentSurface(t *testing.T) {
	s := testingStudy(t)
	if rows := s.Table3(); len(rows) != 8 {
		t.Fatal("Table3 wrong size")
	}
	rows, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatal("Table4 wrong size")
	}
	f6, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Points) != 10 {
		t.Fatal("Figure6 wrong size")
	}
	f11, err := s.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.Points) != 8 {
		t.Fatal("Figure11 wrong size")
	}
}

// TestStudyFullSurface exercises every experiment wrapper once; the
// shared measurement cache keeps this fast.
func TestStudyFullSurface(t *testing.T) {
	s := testingStudy(t)
	if _, err := s.Table2(nil); err != nil {
		t.Error(err)
	}
	t5, err := s.Table5()
	if err != nil {
		t.Error(err)
	} else if len(t5.All) != 29 {
		t.Errorf("Table5 over %d configs", len(t5.All))
	}
	if f, err := s.Figure1(); err != nil || len(f.Points) != 13 {
		t.Errorf("Figure1: %v", err)
	}
	if f, err := s.Figure2(); err != nil || len(f.Points) != 488 {
		t.Errorf("Figure2: %v", err)
	}
	if f, err := s.Figure3(); err != nil || len(f.Points) != 61 {
		t.Errorf("Figure3: %v", err)
	}
	if f, err := s.Figure4(); err != nil || len(f.Ratios) != 2 {
		t.Errorf("Figure4: %v", err)
	}
	if f, err := s.Figure5(); err != nil || len(f.Ratios) != 4 {
		t.Errorf("Figure5: %v", err)
	}
	if f, err := s.Figure7(); err != nil || len(f.Series) != 3 {
		t.Errorf("Figure7: %v", err)
	}
	if f, err := s.Figure8(); err != nil || len(f.Matched) != 2 {
		t.Errorf("Figure8: %v", err)
	}
	if f, err := s.Figure9(); err != nil || len(f.Ratios) != 4 {
		t.Errorf("Figure9: %v", err)
	}
	if f, err := s.Figure10(); err != nil || len(f.Ratios) != 4 {
		t.Errorf("Figure10: %v", err)
	}
	if f, err := s.Figure12(); err != nil || len(f.Curves) != 5 {
		t.Errorf("Figure12: %v", err)
	}
	if r, err := s.Section31(); err != nil || len(r.Rows) != 10 {
		t.Errorf("Section31: %v", err)
	}
	if r, err := s.JVMComparison(); err != nil || len(r.Rows) != 3 {
		t.Errorf("JVMComparison: %v", err)
	}
	if r, err := s.MeterComparison(); err != nil || len(r.Rows) != 8 {
		t.Errorf("MeterComparison: %v", err)
	}
	if r, err := s.KernelBug(); err != nil || len(r.Reports) != 6 {
		t.Errorf("KernelBug: %v", err)
	}
	if r, err := s.HeapSweep(); err != nil || len(r.Series) != 4 {
		t.Errorf("HeapSweep: %v", err)
	}
	if r, err := s.ScalingAnalysis(); err != nil || len(r.Rows) != 2 {
		t.Errorf("ScalingAnalysis: %v", err)
	}
	if r, err := s.PowerBreakdown(); err != nil || len(r.Rows) != 8 {
		t.Errorf("PowerBreakdown: %v", err)
	}
}

// TestMeasureGrid exercises the parallel measurement surface.
func TestMeasureGrid(t *testing.T) {
	s := testingStudy(t)
	atom, err := ProcessorByName(Atom45)
	if err != nil {
		t.Fatal(err)
	}
	cps := []ConfiguredProcessor{{Proc: atom, Config: atom.Stock()}}
	res, err := s.MeasureGrid(context.Background(), cps, BenchmarksByGroup(JavaScalable), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results, want 5", len(res))
	}
	var nilStudy *Study
	if _, err := nilStudy.MeasureGrid(context.Background(), nil, nil, 0); err == nil {
		t.Fatal("nil study accepted")
	}
}
