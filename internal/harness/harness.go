// Package harness implements the paper's measurement methodology end to
// end: it executes each benchmark on a configured machine the prescribed
// number of times (three for SPEC, five for PARSEC, twenty JVM
// invocations measuring the fifth in-process iteration for Java), logs
// chip power through the calibrated Hall-effect sensor substrate at the
// rig's sampling rate, computes 95% confidence intervals (Table 2),
// normalizes to the four-processor reference (Section 2.6), and
// aggregates the four workload groups with equal weight.
package harness

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/counters"
	"repro/internal/jvm"
	"repro/internal/native"
	"repro/internal/proc"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ConfidenceLevel is the paper's reporting level.
const ConfidenceLevel = 0.95

// RunSample is one measured invocation.
type RunSample struct {
	Seconds  float64 // measured execution time
	Watts    float64 // sensor-calibrated average power over the run
	Counters counters.Counters
}

// Measurement is the aggregated result of measuring one benchmark on one
// configured processor.
type Measurement struct {
	Bench *workload.Benchmark
	CP    proc.ConfiguredProcessor

	Runs []RunSample

	Seconds float64 // mean execution time
	Watts   float64 // mean average power
	EnergyJ float64 // mean energy (power x time per run, averaged)

	// Counters holds the mean architectural event counts per run,
	// the paper's counter-power pairing (Section 3.1).
	Counters counters.Counters

	TimeCI  stats.CI
	PowerCI stats.CI
}

// Harness owns the sensor rig and a measurement cache; a single Harness
// reproduces the entire study deterministically from its seed. All
// methods are safe for concurrent use: every run derives its own seed
// from its identity (not from shared RNG state), so parallel and serial
// execution produce identical numbers.
type Harness struct {
	rig  *sensor.Rig
	seed int64

	// tracer records batch and cell spans when set; nil (the default)
	// disables span capture. Tracing never touches the measurement
	// pipeline — results are byte-identical either way.
	tracer *telemetry.Tracer

	mu    sync.Mutex
	cache map[Cell]*cacheEntry

	// machines memoizes validated simulator machines per configuration
	// (a Cell without a benchmark): the study's grid re-measures each
	// configuration 61 times, and a Machine is immutable once built.
	mmu      sync.Mutex
	machines map[Cell]machineEntry
}

// maxMachines bounds the machine memo; every generator plus the full
// grid builds 52. Past it a machine is built for the call and dropped,
// so a daemon fed arbitrary clocks cannot grow the memo without bound.
const maxMachines = 256

// machineEntry is a memoized machine and its configuration's label,
// rendered once for the seed derivation (seedBase).
type machineEntry struct {
	m     *sim.Machine
	label string
}

// cacheEntry memoizes one measurement; the Once arbitrates concurrent
// first requests so the methodology runs exactly once per key.
type cacheEntry struct {
	once sync.Once
	m    *Measurement
	err  error
}

// New builds a harness: it fabricates and calibrates one current sensor
// per fleet machine (the i7 gets the 30A part) and fails if any sensor
// misses the paper's R^2 threshold.
func New(seed int64) (*Harness, error) {
	names := make([]string, 0, 8)
	for _, p := range proc.Fleet() {
		names = append(names, p.Name)
	}
	rig, err := sensor.NewRig(names, map[string]float64{proc.I7Name: 30}, seed)
	if err != nil {
		return nil, fmt.Errorf("harness: rig construction: %w", err)
	}
	return &Harness{
		rig:      rig,
		seed:     seed,
		cache:    make(map[Cell]*cacheEntry),
		machines: make(map[Cell]machineEntry),
	}, nil
}

// machine returns the memoized simulator machine for a configuration,
// with its label, building and validating it on first use (on every use
// once the memo is full). Machines are read-only after construction, so
// one instance serves concurrent measurements.
func (h *Harness) machine(cp proc.ConfiguredProcessor) (machineEntry, error) {
	key := Cell{Proc: cp.Proc.Name, Config: cp.Config}
	h.mmu.Lock()
	defer h.mmu.Unlock()
	if e, ok := h.machines[key]; ok {
		return e, nil
	}
	m, err := sim.NewMachine(cp.Proc, cp.Config)
	if err != nil {
		return machineEntry{}, err
	}
	e := machineEntry{m: m, label: cp.Config.String()}
	if len(h.machines) < maxMachines {
		h.machines[key] = e
	}
	return e, nil
}

// Rig exposes the calibrated sensor rig (for validation reporting).
func (h *Harness) Rig() *sensor.Rig { return h.rig }

// SetTracer attaches a span tracer; nil disables tracing. Set before
// issuing work — the tracer is read concurrently by batch workers.
func (h *Harness) SetTracer(t *telemetry.Tracer) { h.tracer = t }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (h *Harness) Tracer() *telemetry.Tracer { return h.tracer }

// Measure runs the full methodology for one benchmark on one configured
// processor. Results are cached by Cell (benchmark name, processor name
// and exact configuration): the same measurement is reused across
// experiments, as the paper's dataset is. Callers constructing their own
// benchmark variants must therefore give each variant a distinct name.
func (h *Harness) Measure(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*Measurement, error) {
	// Validated before it is memoized: a NaN clock never equals itself,
	// so each such call would add an entry no later call finds.
	if err := validate(b, cp); err != nil {
		return nil, err
	}
	key := Cell{Bench: b.Name, Proc: cp.Proc.Name, Config: cp.Config}
	h.mu.Lock()
	e, ok := h.cache[key]
	if !ok {
		e = &cacheEntry{}
		h.cache[key] = e
	}
	h.mu.Unlock()
	e.once.Do(func() { e.m, e.err = h.measure(b, cp) })
	return e.m, e.err
}

// MeasureUncached runs the full methodology without consulting or
// populating the harness's internal memo. Long-running callers that
// manage their own bounded cache (the powerperfd service) use it so the
// harness does not grow an unbounded shadow copy of every measurement;
// results are bit-identical to Measure's because every run seeds its own
// noise streams from its identity, not from shared state.
func (h *Harness) MeasureUncached(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*Measurement, error) {
	if err := validate(b, cp); err != nil {
		return nil, err
	}
	return h.measure(b, cp)
}

// validate rejects a cell the methodology cannot run: a nil benchmark or
// processor, or a configuration the part's BIOS would refuse.
func validate(b *workload.Benchmark, cp proc.ConfiguredProcessor) error {
	if b == nil {
		return errors.New("harness: nil benchmark")
	}
	if cp.Proc == nil {
		return errors.New("harness: nil processor")
	}
	return cp.Proc.Validate(cp.Config)
}

// measure runs the methodology uncached on a validated cell.
func (h *Harness) measure(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*Measurement, error) {
	me, err := h.machine(cp)
	if err != nil {
		return nil, err
	}
	meter, err := h.rig.Meter(cp.Proc.Name)
	if err != nil {
		return nil, err
	}

	base := h.seedBase(b.Name, cp.Proc.Name, me.label)
	var runs []RunSample
	if b.Managed() {
		runs, err = h.measureManaged(b, me.m, meter, base)
	} else {
		runs, err = h.measureNative(b, me.m, meter, base)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", b.Name, cp, err)
	}

	m := &Measurement{Bench: b, CP: cp, Runs: runs}
	buf := make([]float64, 2*len(runs))
	times, watts := buf[:len(runs)], buf[len(runs):]
	energy := 0.0
	for i, r := range runs {
		times[i] = r.Seconds
		watts[i] = r.Watts
		energy += r.Seconds * r.Watts
	}
	m.Seconds = stats.Mean(times)
	m.Watts = stats.Mean(watts)
	m.EnergyJ = energy / float64(len(runs))
	for _, r := range runs {
		m.Counters.Add(r.Counters)
	}
	m.Counters.Scale(1 / float64(len(runs)))
	if m.TimeCI, err = stats.ConfidenceInterval(times, ConfidenceLevel); err != nil {
		return nil, err
	}
	if m.PowerCI, err = stats.ConfidenceInterval(watts, ConfidenceLevel); err != nil {
		return nil, err
	}
	return m, nil
}

// measureNative performs the prescribed successive executions of an
// ahead-of-time compiled benchmark.
func (h *Harness) measureNative(b *workload.Benchmark, machine *sim.Machine, meter *sensor.Meter, base uint64) ([]RunSample, error) {
	n, err := native.Runs(b)
	if err != nil {
		return nil, err
	}
	spec, err := native.Spec(b, machine.Cfg.Contexts())
	if err != nil {
		return nil, err
	}
	// Plan once, replay per invocation: the prescribed runs differ only
	// in their seeds, so they share one compiled Runner.
	runner, err := machine.NewRunner(spec)
	if err != nil {
		return nil, err
	}
	defer runner.Release()
	runs := make([]RunSample, 0, n)
	for r := 0; r < n; r++ {
		seed := runSeedFrom(base, r, 0)
		lg, err := meter.AcquireLogger(seed ^ 0x1091)
		if err != nil {
			return nil, err
		}
		res, err := runner.Run(seed, lg.Sample)
		if err != nil {
			return nil, err
		}
		tr, err := lg.Finish()
		meter.ReleaseLogger(lg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, RunSample{Seconds: res.Seconds, Watts: tr.AvgWatts, Counters: res.Counters})
	}
	return runs, nil
}

// measureManaged performs twenty JVM invocations, each running five
// in-process iterations and measuring the fifth (Section 2.2).
func (h *Harness) measureManaged(b *workload.Benchmark, machine *sim.Machine, meter *sensor.Meter, base uint64) ([]RunSample, error) {
	plan, err := jvm.NewPlan(b, machine.Cfg.Contexts())
	if err != nil {
		return nil, err
	}
	// Only the measured (fifth) iteration of each invocation contributes
	// to the reported sample. The warm-up iterations are still part of
	// the methodology's model — the plan carries their specs — but
	// executing them is provably dead work: every run seeds its RNG and
	// resets its thermal state from its own identity, takes no sample
	// callback, and has its result discarded, so eliding the replay
	// leaves the measured iteration's bytes untouched. The elision is
	// pinned by the golden determinism tests.
	mi := plan.MeasuredIndex()
	runner, err := machine.NewRunner(plan.Specs[mi])
	if err != nil {
		return nil, err
	}
	defer runner.Release()
	runs := make([]RunSample, 0, jvm.Invocations)
	for inv := 0; inv < jvm.Invocations; inv++ {
		seed := runSeedFrom(base, inv, mi)
		lg, err := meter.AcquireLogger(seed ^ 0x1091)
		if err != nil {
			return nil, err
		}
		res, err := runner.Run(seed, lg.Sample)
		if err != nil {
			return nil, err
		}
		tr, err := lg.Finish()
		meter.ReleaseLogger(lg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, RunSample{Seconds: res.Seconds, Watts: tr.AvgWatts, Counters: res.Counters})
	}
	return runs, nil
}

// FNV-1a parameters, inlined so seed derivation allocates nothing. The
// hashed byte stream is exactly what the original hash/fnv +
// fmt.Fprintf("%d|%s|%s|%s|%d|%d", ...) implementation consumed, so
// every derived seed — and therefore every measured number — is
// unchanged.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func fnvInt(h uint64, v int64) uint64 {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// seedBase hashes the identity prefix shared by every run of one cell
// ("seed|bench|proc|cfg|"), so the per-run tail hashes only the run and
// iteration digits. Computed once per cell instead of once per run. cfg
// is the display label (proc.Config.String) the committed datasets were
// seeded from, so configurations that share it share noise streams.
func (h *Harness) seedBase(bench, processor, cfg string) uint64 {
	f := fnvInt(fnvOffset64, h.seed)
	f = fnvByte(f, '|')
	f = fnvString(f, bench)
	f = fnvByte(f, '|')
	f = fnvString(f, processor)
	f = fnvByte(f, '|')
	f = fnvString(f, cfg)
	f = fnvByte(f, '|')
	return f
}

// runSeedFrom finishes a seed derivation started by seedBase.
func runSeedFrom(base uint64, run, iter int) int64 {
	f := fnvInt(base, int64(run))
	f = fnvByte(f, '|')
	f = fnvInt(f, int64(iter))
	return int64(f)
}
