package proc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFleetHasEightProcessors(t *testing.T) {
	fleet := Fleet()
	if len(fleet) != 8 {
		t.Fatalf("fleet size = %d, want 8", len(fleet))
	}
	seen := map[string]bool{}
	for _, p := range fleet {
		if seen[p.Name] {
			t.Fatalf("duplicate processor %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestFleetMatchesTable3(t *testing.T) {
	cases := []struct {
		name   string
		sspec  string
		cores  int
		smt    int
		clock  float64
		node   int
		transM float64
		tdp    float64
		llc    int64
	}{
		{Pentium4Name, "SL6WF", 1, 2, 2.4, 130, 55, 66, 512 << 10},
		{Core2D65Name, "SL9S8", 2, 1, 2.4, 65, 291, 65, 4 << 20},
		{Core2Q65Name, "SL9UM", 4, 1, 2.4, 65, 582, 105, 8 << 20},
		{I7Name, "SLBCH", 4, 2, 2.67, 45, 731, 130, 8 << 20},
		{Atom45Name, "SLB6Z", 1, 2, 1.7, 45, 47, 4, 512 << 10},
		{Core2D45Name, "SLGTD", 2, 1, 3.1, 45, 228, 65, 3 << 20},
		{AtomD45Name, "SLBLA", 2, 2, 1.7, 45, 176, 13, 1 << 20},
		{I5Name, "SLBLT", 2, 2, 3.46, 32, 382, 73, 4 << 20},
	}
	for _, c := range cases {
		p, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Spec
		if s.SSpec != c.sspec || s.Cores != c.cores || s.SMTWays != c.smt ||
			s.NodeNM != c.node || s.TransistorsM != c.transM ||
			s.TDPWatts != c.tdp || s.LLCBytes != c.llc {
			t.Errorf("%s: spec mismatch: %+v", c.name, s)
		}
		if math.Abs(s.ClockGHz-c.clock) > 1e-9 {
			t.Errorf("%s: clock = %v, want %v", c.name, s.ClockGHz, c.clock)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("i9 (14)"); err == nil {
		t.Fatal("want error for unknown processor")
	}
}

func TestFleetReturnsFreshCopies(t *testing.T) {
	a := Fleet()
	a[0].Spec.TDPWatts = -1
	b := Fleet()
	if b[0].Spec.TDPWatts == -1 {
		t.Fatal("Fleet returned shared state")
	}
}

func TestReferenceNamesCoverGenerationsAndArchs(t *testing.T) {
	names := ReferenceNames()
	if len(names) != 4 {
		t.Fatalf("got %d reference processors, want 4", len(names))
	}
	nodes := map[int]bool{}
	archs := map[Microarch]bool{}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		nodes[p.Spec.NodeNM] = true
		archs[p.Arch] = true
	}
	// All four technology generations and all four microarchitectures.
	for _, node := range []int{130, 65, 45, 32} {
		if !nodes[node] {
			t.Errorf("reference set missing %dnm", node)
		}
	}
	for _, a := range []Microarch{NetBurst, Core, Bonnell, Nehalem} {
		if !archs[a] {
			t.Errorf("reference set missing %s", a)
		}
	}
}

func TestVoltsAtInterpolates(t *testing.T) {
	p, err := ByName(I7Name)
	if err != nil {
		t.Fatal(err)
	}
	lo := p.VoltsAt(p.MinClock())
	hi := p.VoltsAt(p.MaxClock())
	if lo >= hi {
		t.Fatalf("voltage not increasing: %v >= %v", lo, hi)
	}
	mid := p.VoltsAt((p.MinClock() + p.MaxClock()) / 2)
	if mid <= lo || mid >= hi {
		t.Fatalf("interpolated voltage %v outside (%v, %v)", mid, lo, hi)
	}
	// Below-range clamps; above-range extrapolates for turbo headroom.
	if got := p.VoltsAt(0.1); got != lo {
		t.Fatalf("below-range VoltsAt = %v, want clamp to %v", got, lo)
	}
	if got := p.VoltsAt(p.MaxClock() + 0.266); got <= hi {
		t.Fatalf("turbo-range VoltsAt = %v, want > %v", got, hi)
	}
}

func TestVoltsAtSinglePointTable(t *testing.T) {
	p, err := ByName(Atom45Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.VoltsAt(1.7); got != p.Model.VF[0].Volts {
		t.Fatalf("VoltsAt = %v, want table value", got)
	}
}

func TestReleaseTimesParseAndSpanTheDecade(t *testing.T) {
	// Table 3's printed order is not strictly chronological (the i7 row
	// precedes the earlier-released Atom 230), so we only require that
	// all dates parse and the fleet spans 2003 through 2010.
	fleet := Fleet()
	first, err := fleet[0].ReleaseTime()
	if err != nil {
		t.Fatal(err)
	}
	last, err := fleet[len(fleet)-1].ReleaseTime()
	if err != nil {
		t.Fatal(err)
	}
	if first.Year() != 2003 || last.Year() != 2010 {
		t.Fatalf("fleet spans %d..%d, want 2003..2010", first.Year(), last.Year())
	}
	for _, p := range fleet {
		if _, err := p.ReleaseTime(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestStockConfigValidates(t *testing.T) {
	for _, p := range Fleet() {
		if err := p.Validate(p.Stock()); err != nil {
			t.Errorf("%s stock config invalid: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	i7, err := ByName(I7Name)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg  Config
		want error
	}{
		{Config{Cores: 0, SMTWays: 1, ClockGHz: 2.67}, ErrBadCores},
		{Config{Cores: 5, SMTWays: 1, ClockGHz: 2.67}, ErrBadCores},
		{Config{Cores: 4, SMTWays: 3, ClockGHz: 2.67}, ErrBadSMT},
		{Config{Cores: 4, SMTWays: 2, ClockGHz: 0.8}, ErrBadClock},
		{Config{Cores: 4, SMTWays: 2, ClockGHz: 4.0}, ErrBadClock},
		{Config{Cores: 4, SMTWays: 2, ClockGHz: math.NaN()}, ErrBadClock},
		{Config{Cores: 4, SMTWays: 2, ClockGHz: 1.6, Turbo: true}, ErrBadTurbo},
	}
	for _, c := range cases {
		if err := i7.Validate(c.cfg); !errors.Is(err, c.want) {
			t.Errorf("Validate(%v) = %v, want %v", c.cfg, err, c.want)
		}
	}
	// Turbo on a part without it.
	c2d, err := ByName(Core2D65Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2d.Validate(Config{Cores: 2, SMTWays: 1, ClockGHz: 2.4, Turbo: true}); !errors.Is(err, ErrBadTurbo) {
		t.Errorf("want ErrBadTurbo on non-turbo part, got %v", err)
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Cores: 4, SMTWays: 2, ClockGHz: 2.67, Turbo: true}
	if got := c.String(); got != "4C2T@2.7GHz TB" {
		t.Fatalf("String = %q", got)
	}
	c.Turbo = false
	if got := c.String(); got != "4C2T@2.7GHz" {
		t.Fatalf("String = %q", got)
	}
}

func TestConfigSpaceSize(t *testing.T) {
	all := ConfigSpace()
	if len(all) != 45 {
		t.Fatalf("config space = %d configurations, want the paper's 45", len(all))
	}
	at45 := ConfigSpace45nm()
	if len(at45) != 29 {
		t.Fatalf("45nm space = %d configurations, want the paper's 29", len(at45))
	}
	seen := map[string]bool{}
	for _, cp := range all {
		key := cp.String()
		if seen[key] {
			t.Fatalf("duplicate configuration %s", key)
		}
		seen[key] = true
	}
}

func TestConfigSpaceIncludesAllStocks(t *testing.T) {
	all := ConfigSpace()
	for _, p := range Fleet() {
		found := false
		for _, cp := range all {
			if cp.Proc.Name == p.Name && cp.IsStock() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("config space missing stock configuration of %s", p.Name)
		}
	}
}

func TestConfigSpaceAtomD45HasAllFour(t *testing.T) {
	// Table 5 notes that all four AtomD (45) configurations fail to be
	// Pareto efficient; the space must therefore contain exactly four.
	n := 0
	for _, cp := range ConfigSpace45nm() {
		if cp.Proc.Name == AtomD45Name {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("AtomD (45) has %d configurations, want 4", n)
	}
}

func TestStockConfigsOrder(t *testing.T) {
	stocks := StockConfigs()
	if len(stocks) != 8 {
		t.Fatalf("stock configs = %d, want 8", len(stocks))
	}
	for _, cp := range stocks {
		if !cp.IsStock() {
			t.Errorf("%s: not stock", cp)
		}
	}
}

func TestHWContexts(t *testing.T) {
	i7, err := ByName(I7Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := i7.HWContexts(); got != 8 {
		t.Fatalf("i7 contexts = %d, want 8", got)
	}
	if got := (Config{Cores: 2, SMTWays: 2}).Contexts(); got != 4 {
		t.Fatalf("config contexts = %d, want 4", got)
	}
}

func TestTurboCapability(t *testing.T) {
	for _, c := range []struct {
		name string
		want bool
	}{
		{I7Name, true}, {I5Name, true},
		{Pentium4Name, false}, {Core2D45Name, false}, {Atom45Name, false},
	} {
		p, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.HasTurbo() != c.want {
			t.Errorf("%s HasTurbo = %v, want %v", c.name, p.HasTurbo(), c.want)
		}
	}
}

// Property: every config in the space validates against its own part, and
// VoltsAt is monotone non-decreasing across each part's DVFS range.
func TestQuickVoltsMonotone(t *testing.T) {
	f := func(stepRaw uint8) bool {
		for _, p := range Fleet() {
			lo, hi := p.MinClock(), p.MaxClock()
			if hi == lo {
				continue
			}
			step := (hi - lo) / (2 + float64(stepRaw%16))
			prev := p.VoltsAt(lo)
			for g := lo + step; g <= hi+1e-9; g += step {
				cur := p.VoltsAt(g)
				if cur < prev-1e-12 {
					return false
				}
				prev = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestVIDRangeBracketsVFTable(t *testing.T) {
	for _, p := range Fleet() {
		if p.Spec.VIDMinV == 0 {
			continue // unpublished (Pentium 4)
		}
		for _, vf := range p.Model.VF {
			if vf.Volts < p.Spec.VIDMinV-1e-9 || vf.Volts > p.Spec.VIDMaxV+1e-9 {
				t.Errorf("%s: VF point %+v outside VID range [%v, %v]",
					p.Name, vf, p.Spec.VIDMinV, p.Spec.VIDMaxV)
			}
		}
	}
}
