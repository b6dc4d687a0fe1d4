package workload

import (
	"fmt"
	"sync"
)

// allTemplate memoizes the validated Table 1 suite: the construction —
// 61 literals plus validation — runs once per process, and All hands out
// fresh value copies of the template, preserving the caller-isolation
// contract (a Benchmark is a flat value type, so a struct copy is a deep
// copy). byNameIdx maps names into the template for O(1) ByName.
var (
	allOnce     sync.Once
	allTemplate []Benchmark
	byNameIdx   map[string]int
)

func allInit() {
	allOnce.Do(func() {
		bs := buildAll()
		allTemplate = make([]Benchmark, len(bs))
		byNameIdx = make(map[string]int, len(bs))
		for i, b := range bs {
			allTemplate[i] = *b
			byNameIdx[b.Name] = i
		}
	})
}

// All returns the 61 benchmarks of Table 1 in the paper's order. Callers
// receive fresh copies.
//
// The behavioural fields (ILP, MPKI, working set, parallel fraction,
// activity) are distilled from the suites' published characterizations:
// SPEC CPU2006's memory-bound outliers (mcf, lbm, libquantum, milc,
// GemsFDTD) carry the large working sets and high miss rates reported for
// them; PARSEC's scaling behaviour follows Bienia et al.'s technical
// report (scales to 8 contexts); DaCapo 9.12 carries larger working sets
// than SPECjvm98 per Blackburn et al.; the managed-runtime fields
// (ServiceFrac, AllocMBps, Displacement) encode the JVM behaviour the
// paper isolates in Section 3.1 (antlr spends up to 50% of its time in
// the JVM; db's collector displacement dominates its DTLB behaviour).
func All() []*Benchmark {
	allInit()
	out := make([]*Benchmark, len(allTemplate))
	for i := range allTemplate {
		b := allTemplate[i]
		out[i] = &b
	}
	return out
}

// buildAll constructs and validates the suite; it runs once (see allInit).
func buildAll() []*Benchmark {
	bs := make([]*Benchmark, 0, 61)
	add := func(b Benchmark) {
		if err := b.Validate(); err != nil {
			panic(fmt.Sprintf("workload: invalid built-in benchmark: %v", err))
		}
		bs = append(bs, &b)
	}

	// --- Native Non-scalable: SPEC CINT2006 (12) ---------------------
	nn := func(name string, suite Suite, ref, ilp, mpki, wsKB, act, br, mlp float64, desc string) {
		add(Benchmark{
			Name: name, Description: desc, Suite: suite,
			Group: NativeNonScalable, RefSeconds: ref, Threads: 1,
			ILP: ilp, MPKI: mpki, WorkingSetKB: wsKB, MLPFactor: mlp,
			Activity: act, BranchWeight: br,
		})
	}
	nn("perlbench", SPECInt, 1037, 1.8, 1.0, 25<<10, 0.64, 0.90, 1.0, "Perl programming language")
	nn("bzip2", SPECInt, 1563, 1.6, 3.0, 8<<10, 0.62, 0.70, 1.0, "bzip2 compression")
	nn("gcc", SPECInt, 851, 1.4, 5.5, 80<<10, 0.60, 0.90, 1.0, "C optimizing compiler")
	nn("mcf", SPECInt, 894, 0.9, 30, 400<<10, 0.52, 0.60, 0.55, "Combinatorial opt / vehicle scheduling")
	nn("gobmk", SPECInt, 1113, 1.3, 0.8, 25<<10, 0.64, 1.00, 1.0, "AI: Go game")
	nn("hmmer", SPECInt, 1024, 2.2, 0.4, 20<<10, 0.70, 0.30, 1.0, "Gene sequence database search")
	nn("sjeng", SPECInt, 1315, 1.4, 0.5, 170<<10, 0.64, 0.90, 1.0, "AI: tree search & pattern recognition")
	nn("libquantum", SPECInt, 629, 1.5, 25, 64<<10, 0.55, 0.40, 1.35, "Physics / quantum computing")
	nn("h264ref", SPECInt, 1533, 2.0, 0.6, 25<<10, 0.72, 0.50, 1.0, "H.264/AVC video compression")
	nn("omnetpp", SPECInt, 905, 1.1, 12, 150<<10, 0.50, 0.80, 0.7, "Ethernet network simulation (OMNeT++)")
	nn("astar", SPECInt, 1154, 1.2, 8, 180<<10, 0.58, 0.70, 0.75, "Portable 2D path-finding library")
	nn("xalancbmk", SPECInt, 787, 1.4, 10, 190<<10, 0.60, 0.90, 0.8, "XSLT processor for XML transformation")

	// --- Native Non-scalable: SPEC CFP2006 (15) ----------------------
	nn("gamess", SPECFP, 3505, 2.2, 0.2, 1<<10, 0.72, 0.20, 1.0, "Quantum chemical computations")
	nn("milc", SPECFP, 640, 1.3, 16, 680<<10, 0.60, 0.15, 1.25, "Physics / quantum chromodynamics")
	nn("zeusmp", SPECFP, 1541, 1.8, 5, 500<<10, 0.68, 0.20, 1.15, "Physics / magnetohydrodynamics (ZEUS-MP)")
	nn("gromacs", SPECFP, 983, 2.0, 0.7, 14<<10, 0.72, 0.25, 1.0, "Molecular dynamics simulation")
	nn("cactusADM", SPECFP, 1994, 1.7, 5, 700<<10, 0.66, 0.10, 1.15, "Cactus/BenchADM relativity kernels")
	nn("leslie3d", SPECFP, 1512, 1.8, 8, 120<<10, 0.66, 0.15, 1.2, "Linear-Eddy Model 3D fluid dynamics")
	nn("namd", SPECFP, 1225, 2.2, 0.3, 46<<10, 0.74, 0.20, 1.0, "Parallel biomolecular simulation")
	nn("dealII", SPECFP, 832, 1.9, 1.5, 120<<10, 0.68, 0.40, 1.0, "Adaptive finite element PDE solver")
	nn("soplex", SPECFP, 1024, 1.2, 12, 250<<10, 0.58, 0.50, 1.0, "Simplex linear program solver")
	nn("povray", SPECFP, 636, 1.9, 0.1, 3<<10, 0.72, 0.60, 1.0, "Ray-tracer")
	nn("calculix", SPECFP, 1130, 2.1, 1.0, 60<<10, 0.70, 0.30, 1.0, "Finite element structural application")
	nn("GemsFDTD", SPECFP, 1648, 1.6, 10, 800<<10, 0.62, 0.15, 1.2, "Maxwell equations in 3D, time domain")
	nn("tonto", SPECFP, 1439, 1.8, 1.2, 45<<10, 0.70, 0.30, 1.0, "Quantum crystallography")
	nn("lbm", SPECFP, 1298, 1.6, 20, 400<<10, 0.60, 0.05, 1.35, "Lattice Boltzmann incompressible fluids")
	nn("sphinx3", SPECFP, 2007, 1.7, 3.5, 180<<10, 0.66, 0.40, 1.0, "Speech recognition")

	// --- Native Scalable: PARSEC (11) --------------------------------
	ns := func(name string, ref, ilp, mpki, wsKB, pf, sync, act float64, desc string) {
		add(Benchmark{
			Name: name, Description: desc, Suite: PARSEC,
			Group: NativeScalable, RefSeconds: ref, Threads: 0,
			ILP: ilp, MPKI: mpki, WorkingSetKB: wsKB, MLPFactor: 1.1,
			ParallelFrac: pf, SyncOverhead: sync,
			Activity: act, BranchWeight: 0.35,
		})
	}
	ns("blackscholes", 482, 2.0, 0.15, 2<<10, 0.960, 0.015, 0.88, "Prices options with Black-Scholes PDE")
	ns("bodytrack", 471, 1.8, 0.6, 8<<10, 0.930, 0.045, 0.86, "Tracks a markerless human body")
	ns("canneal", 301, 1.1, 5.5, 96<<10, 0.890, 0.045, 0.80, "Cache-aware simulated annealing for routing")
	ns("facesim", 1230, 1.8, 1.6, 64<<10, 0.920, 0.045, 0.90, "Simulates human face motions")
	ns("ferret", 738, 1.7, 1.2, 64<<10, 0.940, 0.038, 0.90, "Image search")
	ns("fluidanimate", 812, 1.9, 0.8, 128<<10, 0.930, 0.038, 1.00, "SPH fluid physics for realtime animation")
	ns("raytrace", 1970, 1.8, 0.4, 128<<10, 0.940, 0.030, 0.90, "Physical simulation for visualization")
	ns("streamcluster", 629, 1.4, 4.0, 110<<10, 0.920, 0.038, 0.84, "Online clustering of a data stream")
	ns("swaptions", 612, 2.1, 0.1, 1<<10, 0.965, 0.015, 0.94, "Prices swaptions (Heath-Jarrow-Morton)")
	ns("vips", 297, 1.8, 0.8, 16<<10, 0.930, 0.038, 0.90, "Applies transformations to an image")
	ns("x264", 265, 2.0, 0.4, 16<<10, 0.910, 0.045, 0.94, "MPEG-4 AVC / H.264 video encoder")

	// --- Java Non-scalable (18) ---------------------------------------
	// Single-threaded benchmarks carry the JVM-induced parallelism the
	// paper measures in Figure 6 via ServiceFrac and Displacement.
	jn := func(name string, suite Suite, ref float64, threads int, ilp, mpki, wsKB, pf, act, sf, alloc, disp float64, desc string) {
		add(Benchmark{
			Name: name, Description: desc, Suite: suite,
			Group: JavaNonScalable, RefSeconds: ref, Threads: threads,
			ILP: ilp, MPKI: mpki, WorkingSetKB: wsKB, MLPFactor: 0.55,
			ParallelFrac: pf, SyncOverhead: 0.03,
			Activity: act, BranchWeight: 0.75,
			ServiceFrac: sf, AllocMBps: alloc, Displacement: disp,
		})
	}
	jn("compress", SPECjvm, 5.3, 1, 1.7, 2.2, 100, 0, 0.84, 0.02, 20, 0.02, "Lempel-Ziv compression")
	jn("jess", SPECjvm, 1.4, 1, 1.4, 1.4, 2<<10, 0, 0.82, 0.06, 250, 0.04, "Java expert system shell")
	jn("db", SPECjvm, 6.8, 1, 1.0, 12, 16<<10, 0, 0.74, 0.05, 80, 0.25, "Small data management program")
	jn("javac", SPECjvm, 3.0, 1, 1.4, 3.5, 8<<10, 0, 0.80, 0.05, 200, 0.03, "The JDK 1.0.2 Java compiler")
	jn("mpegaudio", SPECjvm, 3.1, 1, 2.0, 0.45, 600, 0, 0.86, 0.01, 10, 0.01, "MPEG-3 audio stream decoder")
	jn("mtrt", SPECjvm, 0.8, 2, 1.6, 1.7, 4<<10, 0.65, 0.86, 0.08, 300, 0.04, "Dual-threaded raytracer")
	jn("jack", SPECjvm, 2.4, 1, 1.4, 1.4, 2<<10, 0, 0.82, 0.10, 270, 0.08, "Parser generator with lexical analysis")
	jn("antlr", DaCapo06, 2.9, 1, 1.3, 2.9, 4<<10, 0, 0.80, 0.30, 390, 0.12, "Parser and translator generator")
	jn("bloat", DaCapo06, 7.6, 1, 1.2, 4.2, 12<<10, 0, 0.78, 0.08, 320, 0.06, "Java bytecode optimization and analysis")
	jn("avrora", DaCapo9, 11.3, 6, 1.2, 1.4, 1<<10, 0.40, 0.80, 0.06, 60, 0.03, "Simulates the AVR microcontroller")
	jn("batik", DaCapo9, 4.0, 2, 1.5, 2.9, 32<<10, 0.20, 0.82, 0.08, 180, 0.05, "Scalable Vector Graphics (SVG) toolkit")
	jn("fop", DaCapo9, 1.8, 1, 1.3, 4.2, 24<<10, 0, 0.80, 0.15, 340, 0.08, "Output-independent print formatter")
	jn("h2", DaCapo9, 14.4, 4, 1.1, 10, 500<<10, 0.10, 0.76, 0.07, 450, 0.06, "An SQL relational database engine in Java")
	jn("jython", DaCapo9, 8.5, 2, 1.3, 3.5, 24<<10, 0.45, 0.80, 0.09, 520, 0.05, "Python interpreter in Java")
	jn("pmd", DaCapo9, 6.9, 4, 1.3, 5.8, 48<<10, 0.25, 0.78, 0.09, 380, 0.06, "Source code analyzer for Java")
	jn("tradebeans", DaCapo9, 18.4, 8, 1.2, 8.3, 200<<10, 0.55, 0.76, 0.08, 270, 0.05, "Tradebeans Daytrader benchmark")
	jn("luindex", DaCapo9, 2.4, 1, 1.4, 2.9, 16<<10, 0, 0.82, 0.20, 290, 0.10, "A text indexing tool")
	jn("pjbb2005", PJBB2005, 10.6, 8, 1.3, 9.6, 400<<10, 0.70, 0.80, 0.08, 600, 0.05, "Transaction processing (SPECjbb2005, fixed workload)")

	// --- Java Scalable: DaCapo 9.12 (5) -------------------------------
	js := func(name string, ref float64, ilp, mpki, wsKB, pf, act, sf, alloc float64, desc string) {
		add(Benchmark{
			Name: name, Description: desc, Suite: DaCapo9,
			Group: JavaScalable, RefSeconds: ref, Threads: 0,
			ILP: ilp, MPKI: mpki, WorkingSetKB: wsKB, MLPFactor: 0.55,
			ParallelFrac: pf, SyncOverhead: 0.02,
			Activity: act, BranchWeight: 0.75,
			ServiceFrac: sf, AllocMBps: alloc, Displacement: 0.05,
		})
	}
	js("eclipse", 50.5, 1.3, 5.8, 200<<10, 0.722, 0.92, 0.10, 380, "Integrated development environment")
	js("lusearch", 7.9, 1.4, 7, 32<<10, 0.838, 0.96, 0.10, 2300, "Text search tool")
	js("sunflow", 19.4, 1.7, 2.9, 16<<10, 0.958, 1.00, 0.08, 1100, "Photo-realistic rendering system")
	js("tomcat", 8.6, 1.3, 5.8, 64<<10, 0.894, 0.92, 0.10, 420, "Tomcat servlet container")
	js("xalan", 6.9, 1.4, 8.3, 48<<10, 0.937, 0.96, 0.10, 830, "XSLT processor for XML documents")

	return bs
}

// ByName returns the benchmark with the given name.
func ByName(name string) (*Benchmark, error) {
	allInit()
	i, ok := byNameIdx[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	b := allTemplate[i]
	return &b, nil
}

// ByGroup returns the benchmarks of one group, in Table 1 order.
// Callers receive fresh copies of that group's members only.
func ByGroup(g Group) []*Benchmark {
	allInit()
	n := 0
	for i := range allTemplate {
		if allTemplate[i].Group == g {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	copies := make([]Benchmark, 0, n)
	out := make([]*Benchmark, n)
	for i := range allTemplate {
		if allTemplate[i].Group == g {
			copies = append(copies, allTemplate[i])
			out[len(copies)-1] = &copies[len(copies)-1]
		}
	}
	return out
}

// GroupSizes returns the benchmark count per group: 27, 11, 18, and 5 in
// the paper.
func GroupSizes() map[Group]int {
	sizes := make(map[Group]int, 4)
	for _, b := range All() {
		sizes[b.Group]++
	}
	return sizes
}

// MultithreadedJava returns the 13 multithreaded Java benchmarks whose
// scalability Figure 1 plots, in the figure's descending order.
func MultithreadedJava() []*Benchmark {
	names := []string{
		"sunflow", "xalan", "tomcat", "lusearch", "eclipse",
		"pjbb2005", "mtrt", "tradebeans", "jython", "avrora",
		"batik", "pmd", "h2",
	}
	out := make([]*Benchmark, 0, len(names))
	for _, n := range names {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// SingleThreadedJava returns the single-threaded Java benchmarks whose
// CMP behaviour Figure 6 plots, in the figure's order.
func SingleThreadedJava() []*Benchmark {
	names := []string{
		"antlr", "luindex", "fop", "jack", "db",
		"bloat", "jess", "compress", "mpegaudio", "javac",
	}
	out := make([]*Benchmark, 0, len(names))
	for _, n := range names {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// Suites returns the seven suite tags of Table 1 in its order.
func Suites() []Suite {
	return []Suite{SPECInt, SPECFP, PARSEC, SPECjvm, DaCapo06, DaCapo9, PJBB2005}
}

// SuiteName returns the full name of a suite abbreviation.
func SuiteName(s Suite) string {
	switch s {
	case SPECInt:
		return "SPEC CINT2006"
	case SPECFP:
		return "SPEC CFP2006"
	case PARSEC:
		return "PARSEC"
	case SPECjvm:
		return "SPECjvm98"
	case DaCapo06:
		return "DaCapo 06-10-MR2"
	case DaCapo9:
		return "DaCapo 9.12"
	case PJBB2005:
		return "pjbb2005"
	default:
		return string(s)
	}
}

// BySuite returns the benchmarks drawn from one suite, in Table 1 order.
func BySuite(s Suite) []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.Suite == s {
			out = append(out, b)
		}
	}
	return out
}

// Exclusion records a benchmark the paper considered but excluded from
// Table 1, and why — part of the suite-construction methodology of
// Section 2.1.
type Exclusion struct {
	Name   string
	Suite  Suite
	Reason string
}

// Exclusions returns the benchmarks the paper excluded. They are not
// runnable here (matching the paper), but the catalog documents the
// workload's construction.
func Exclusions() []Exclusion {
	return []Exclusion{
		{"410.bwaves", SPECFP, "failed to execute when compiled with the Intel compiler"},
		{"481.wrf", SPECFP, "failed to execute when compiled with the Intel compiler"},
		{"freqmine", PARSEC, "not amenable to the scaling experiments (does not use POSIX threads)"},
		{"dedup", PARSEC, "working set exceeds the 2003 Pentium 4 machine's memory"},
		{"tradesoap", DaCapo9, "heavy socket use suffered timeouts on the slowest machines"},
	}
}
