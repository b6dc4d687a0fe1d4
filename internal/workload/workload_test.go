package workload

import (
	"testing"
	"testing/quick"
)

func TestAllHas61Benchmarks(t *testing.T) {
	bs := All()
	if len(bs) != 61 {
		t.Fatalf("got %d benchmarks, want the paper's 61", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestGroupSizesMatchPaper(t *testing.T) {
	sizes := GroupSizes()
	want := map[Group]int{
		NativeNonScalable: 27, // 12 CINT + 15 CFP
		NativeScalable:    11, // PARSEC
		JavaNonScalable:   18,
		JavaScalable:      5,
	}
	for g, n := range want {
		if sizes[g] != n {
			t.Errorf("%s: %d benchmarks, want %d", g, sizes[g], n)
		}
	}
}

func TestAllValidate(t *testing.T) {
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestReferenceTimesMatchTable1(t *testing.T) {
	cases := map[string]float64{
		"perlbench": 1037, "bzip2": 1563, "gamess": 3505, "sphinx3": 2007,
		"blackscholes": 482, "x264": 265, "compress": 5.3, "mtrt": 0.8,
		"eclipse": 50.5, "xalan": 6.9, "pjbb2005": 10.6, "tradebeans": 18.4,
	}
	for name, ref := range cases {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.RefSeconds != ref {
			t.Errorf("%s: ref time %v, want %v", name, b.RefSeconds, ref)
		}
	}
}

func TestNativeRunsLongerThanManaged(t *testing.T) {
	// Section 2.6: native workloads execute far longer than managed ones
	// (more repetition, not more sophistication).
	var natMin, javaMax float64 = 1e18, 0
	for _, b := range All() {
		if b.Managed() {
			if b.RefSeconds > javaMax {
				javaMax = b.RefSeconds
			}
		} else if b.RefSeconds < natMin {
			natMin = b.RefSeconds
		}
	}
	if natMin < javaMax {
		t.Fatalf("shortest native (%vs) shorter than longest managed (%vs)", natMin, javaMax)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doom3"); err == nil {
		t.Fatal("want error for unknown benchmark")
	}
}

// TestByGroupPartitionsAll: the groups' members are All's, in Table 1
// order, and each call hands out fresh copies.
func TestByGroupPartitionsAll(t *testing.T) {
	total := 0
	for _, g := range Groups() {
		var want []Benchmark
		for _, b := range All() {
			if b.Group == g {
				want = append(want, *b)
			}
		}
		got := ByGroup(g)
		if len(got) != len(want) {
			t.Fatalf("%v: %d members, want %d", g, len(got), len(want))
		}
		for i := range got {
			if *got[i] != want[i] {
				t.Fatalf("%v member %d is %s, want %s", g, i, got[i].Name, want[i].Name)
			}
			got[i].Name = "corrupted"
		}
		if fresh := ByGroup(g); *fresh[0] != want[0] {
			t.Fatalf("%v: a caller's write reached the next call", g)
		}
		total += len(got)
	}
	if total != 61 {
		t.Fatalf("groups cover %d benchmarks, want 61", total)
	}
}

func TestGroupPredicates(t *testing.T) {
	if !JavaScalable.Managed() || !JavaNonScalable.Managed() {
		t.Fatal("Java groups must be managed")
	}
	if NativeScalable.Managed() || NativeNonScalable.Managed() {
		t.Fatal("native groups must not be managed")
	}
	if !JavaScalable.Scalable() || !NativeScalable.Scalable() {
		t.Fatal("scalable groups must be scalable")
	}
	if JavaNonScalable.Scalable() || NativeNonScalable.Scalable() {
		t.Fatal("non-scalable groups must not be scalable")
	}
}

func TestGroupStrings(t *testing.T) {
	if NativeNonScalable.String() != "Native Non-scalable" {
		t.Fatalf("got %q", NativeNonScalable.String())
	}
	if got := Group(9).String(); got != "Group(9)" {
		t.Fatalf("got %q", got)
	}
}

func TestThreadsOn(t *testing.T) {
	scalable, err := ByName("sunflow")
	if err != nil {
		t.Fatal(err)
	}
	if got := scalable.ThreadsOn(8); got != 8 {
		t.Fatalf("scalable ThreadsOn(8) = %d, want 8", got)
	}
	st, err := ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.ThreadsOn(8); got != 1 {
		t.Fatalf("single-threaded ThreadsOn(8) = %d, want 1", got)
	}
	fixed, err := ByName("pjbb2005")
	if err != nil {
		t.Fatal(err)
	}
	if got := fixed.ThreadsOn(2); got != 8 {
		t.Fatalf("fixed-thread ThreadsOn(2) = %d, want 8 (threads oversubscribe)", got)
	}
	if got := st.ThreadsOn(0); got != 0 {
		t.Fatalf("ThreadsOn(0) = %d, want 0", got)
	}
}

func TestValidateRejectsBadDescriptors(t *testing.T) {
	good, err := ByName("sunflow")
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(b *Benchmark){
		func(b *Benchmark) { b.Name = "" },
		func(b *Benchmark) { b.RefSeconds = 0 },
		func(b *Benchmark) { b.Threads = -1 },
		func(b *Benchmark) { b.ILP = 0 },
		func(b *Benchmark) { b.MPKI = -1 },
		func(b *Benchmark) { b.WorkingSetKB = 0 },
		func(b *Benchmark) { b.ParallelFrac = 1.5 },
		func(b *Benchmark) { b.Activity = 0 },
		func(b *Benchmark) { b.ServiceFrac = 0 }, // managed without service
	}
	for i, mutate := range cases {
		cp := *good
		mutate(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("case %d: mutation passed validation", i)
		}
	}
	// Native benchmark with managed fields must fail.
	nat, err := ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	cp := *nat
	cp.ServiceFrac = 0.1
	if err := cp.Validate(); err == nil {
		t.Fatal("native benchmark with ServiceFrac passed validation")
	}
}

func TestManagedBenchmarksHaveRuntimeDemands(t *testing.T) {
	for _, b := range All() {
		if b.Managed() {
			if b.ServiceFrac <= 0 || b.AllocMBps <= 0 {
				t.Errorf("%s: managed benchmark missing runtime demands", b.Name)
			}
		} else if b.ServiceFrac != 0 || b.AllocMBps != 0 || b.Displacement != 0 {
			t.Errorf("%s: native benchmark has runtime fields", b.Name)
		}
	}
}

func TestScalableBenchmarksDeclareParallelism(t *testing.T) {
	for _, b := range All() {
		if b.Group.Scalable() {
			if b.Threads != 0 {
				t.Errorf("%s: scalable benchmark with fixed threads", b.Name)
			}
			if b.ParallelFrac < 0.7 {
				t.Errorf("%s: scalable benchmark with parallel fraction %v", b.Name, b.ParallelFrac)
			}
		}
	}
	// Native non-scalable are strictly single-threaded (Section 2.1).
	for _, b := range ByGroup(NativeNonScalable) {
		if b.Threads != 1 {
			t.Errorf("%s: native non-scalable must be single-threaded", b.Name)
		}
	}
}

func TestFigureBenchmarkLists(t *testing.T) {
	mt := MultithreadedJava()
	if len(mt) != 13 {
		t.Fatalf("Figure 1 list has %d benchmarks, want 13", len(mt))
	}
	for _, b := range mt {
		if !b.Managed() {
			t.Errorf("%s in Figure 1 list is not Java", b.Name)
		}
		if b.Threads == 1 {
			t.Errorf("%s in Figure 1 list is single-threaded", b.Name)
		}
	}
	st := SingleThreadedJava()
	if len(st) != 10 {
		t.Fatalf("Figure 6 list has %d benchmarks, want 10", len(st))
	}
	for _, b := range st {
		if b.Threads != 1 || !b.Managed() {
			t.Errorf("%s in Figure 6 list is not single-threaded Java", b.Name)
		}
	}
}

func TestInstructionsProportionalToRefTime(t *testing.T) {
	a, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("db")
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Instructions() / a.RefSeconds
	rb := b.Instructions() / b.RefSeconds
	if ra != rb {
		t.Fatalf("instruction rate constant differs: %v vs %v", ra, rb)
	}
}

// Property: All returns deep-enough copies that callers cannot corrupt the
// suite data.
func TestQuickAllIsolation(t *testing.T) {
	f := func(idx uint8) bool {
		bs := All()
		i := int(idx) % len(bs)
		orig := *bs[i]
		bs[i].RefSeconds = -1
		bs[i].Name = "corrupted"
		fresh := All()
		return *fresh[i] == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSuitesPartitionTable1(t *testing.T) {
	wantCounts := map[Suite]int{
		SPECInt: 12, SPECFP: 15, PARSEC: 11,
		SPECjvm: 7, DaCapo06: 2, DaCapo9: 13, PJBB2005: 1,
	}
	total := 0
	for _, s := range Suites() {
		got := len(BySuite(s))
		if got != wantCounts[s] {
			t.Errorf("%s (%s): %d benchmarks, want %d", s, SuiteName(s), got, wantCounts[s])
		}
		total += got
	}
	if total != 61 {
		t.Fatalf("suites cover %d benchmarks, want 61", total)
	}
	for _, s := range Suites() {
		if SuiteName(s) == string(s) {
			t.Errorf("suite %s has no full name", s)
		}
	}
	if SuiteName(Suite("zz")) != "zz" {
		t.Error("unknown suite not passed through")
	}
}

func TestExclusionsDocumented(t *testing.T) {
	ex := Exclusions()
	if len(ex) != 5 {
		t.Fatalf("%d exclusions, want the paper's 5", len(ex))
	}
	for _, e := range ex {
		if e.Reason == "" {
			t.Errorf("%s: exclusion without a reason", e.Name)
		}
		// Excluded benchmarks must not be in the runnable suite.
		if _, err := ByName(e.Name); err == nil {
			t.Errorf("%s: excluded benchmark present in Table 1", e.Name)
		}
	}
}

func TestDescriptionsComplete(t *testing.T) {
	for _, b := range All() {
		if b.Description == "" {
			t.Errorf("%s: missing description", b.Name)
		}
	}
}
