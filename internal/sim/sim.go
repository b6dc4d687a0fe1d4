// Package sim is the machine simulator: it executes a placement-resolved
// workload specification on one configured processor and produces the
// run's duration and true power trace, which the harness then pushes
// through the sensor substrate exactly as the paper's rig logged real
// rails.
//
// A run is modeled as two sequential segments — the Amdahl serial portion
// on one thread and the parallel portion across the configured hardware
// contexts — each executed by a time-stepped loop that integrates work,
// evolves the thermal state, resolves Turbo Boost, and samples power with
// per-phase modulation. The substitution of this simulator for the
// paper's physical fleet is documented in DESIGN.md.
//
// Planning and execution are split: a Runner pre-compiles each segment's
// power model into flat coefficients (power.Kernel) once, and then
// replays the run for any number of seeds with zero heap allocations per
// integration step. Machine.Run remains the one-shot convenience path.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/counters"
	"repro/internal/fastrand"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/proc"
	"repro/internal/thermal"
)

// Machine is one processor in one hardware configuration.
type Machine struct {
	Proc *proc.Processor
	Cfg  proc.Config

	hier mem.Hierarchy
	pipe pipeline.Params

	// planMu/plans memoize compiled segment plans per spec: a study block
	// re-plans the same (machine, spec) pair for every run and every
	// serving request, and a compiled plan — segments, turbo resolution,
	// flattened power kernels — is immutable once built, so one compile
	// serves every Runner that replays the spec. ExecSpec is a flat value
	// type, so it keys the memo directly.
	planMu sync.Mutex
	plans  map[ExecSpec][]segment

	// states pools per-run mutable state (RNG and thermal model) across
	// the Runners of this machine: a Runner reseeds and resets both on
	// every Run, so reuse is invisible to results.
	states sync.Pool
}

// NewMachine validates the configuration and builds the machine.
func NewMachine(p *proc.Processor, cfg proc.Config) (*Machine, error) {
	if p == nil {
		return nil, errors.New("sim: nil processor")
	}
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	hier, err := mem.FromModel(
		p.Model.L2KBPerCore, float64(p.Spec.LLCBytes),
		p.Model.MemLatencyNs, p.Model.DRAMBWGBs, p.Model.MLPHiding)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", p.Name, err)
	}
	pipe := pipeline.Params{
		IssueWidth:    p.Model.IssueWidth,
		OutOfOrder:    p.Model.OutOfOrder,
		ILPEff:        p.Model.IssueEff,
		BranchPenalty: p.Model.BranchPenalty,
		SMTFillEff:    p.Model.SMTFillEff,
		SMTOverhead:   p.Model.SMTOverhead,
	}
	if err := pipe.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", p.Name, err)
	}
	return &Machine{Proc: p, Cfg: cfg, hier: hier, pipe: pipe}, nil
}

// ExecSpec is a placement-resolved execution request: what to run and how
// the runtime (native loader or managed runtime) has arranged it. The
// native and jvm packages construct these from workload descriptors.
type ExecSpec struct {
	// Work is the application instruction count to retire.
	Work float64
	// AppThreads is the number of application threads.
	AppThreads int
	// ParallelFrac and SyncOverhead shape multithreaded scaling.
	ParallelFrac float64
	SyncOverhead float64

	// Workload character (see workload.Benchmark for semantics).
	ILP          float64
	MPKI         float64
	WorkingSetKB float64
	MLPFactor    float64 // 0 means the neutral 1
	Activity     float64
	BranchWeight float64

	// ServiceWork is the fraction of Work executed by runtime service
	// threads (JIT/GC); zero for native code.
	ServiceWork float64
	// ServiceThreads is how many service threads want contexts.
	ServiceThreads int
	// CoLocPenalty is the fractional slowdown services inflict when they
	// share the application's hardware context (cache/TLB displacement).
	CoLocPenalty float64

	// RateJitterSD and PowerJitterSD model run-to-run non-determinism
	// (small for AOT native code, larger for JIT/GC-driven Java).
	RateJitterSD  float64
	PowerJitterSD float64
}

// Validate checks the spec.
func (s ExecSpec) Validate() error {
	switch {
	case s.Work <= 0:
		return errors.New("sim: work must be positive")
	case s.AppThreads < 1:
		return errors.New("sim: need at least one application thread")
	case s.ParallelFrac < 0 || s.ParallelFrac > 1:
		return errors.New("sim: parallel fraction outside [0,1]")
	case s.ILP <= 0 || s.WorkingSetKB <= 0 || s.Activity <= 0:
		return errors.New("sim: workload character must be positive")
	case s.MPKI < 0 || s.BranchWeight < 0 || s.SyncOverhead < 0:
		return errors.New("sim: negative workload parameter")
	case s.ServiceWork < 0 || s.ServiceWork >= 1:
		return errors.New("sim: service work outside [0,1)")
	case s.ServiceThreads < 0 || s.CoLocPenalty < 0:
		return errors.New("sim: negative service parameter")
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	Seconds     float64 // wall-clock duration
	AvgWatts    float64 // true (pre-sensor) time-weighted average power
	EnergyJ     float64 // true energy
	PeakWatts   float64
	AvgClockGHz float64 // time-weighted, including turbo steps
	Steps       int     // integration steps taken

	// Counters holds the run's architectural events, the quantities the
	// paper pairs with its power measurements (Section 3.1).
	Counters counters.Counters

	// Breakdown is the time-weighted average per-structure power — the
	// decomposition the paper's conclusion asks vendors to expose
	// ("structure specific power meters for cores, caches, and other
	// structures").
	Breakdown power.Breakdown
}

// SampleFunc receives each integration step's true power and duration;
// the harness wires it to the sensor logger.
type SampleFunc func(trueWatts, dtSeconds float64)

// segment is one steady-state portion of a run, with its power model
// pre-compiled for the integration loop.
type segment struct {
	workFrac    float64 // fraction of app work retired in this segment
	rate        float64 // instructions per second
	op          power.Operating
	activeCores int

	// kern is the compiled power model at the segment's resolved (turbo)
	// operating point; kernThrottled is the same load picture at the base
	// clock, used when the junction saturates. canThrottle records whether
	// the two differ (turbo headroom exists above the configured clock).
	kern          power.Kernel
	kernThrottled power.Kernel
	canThrottle   bool

	// Event rates for the hardware counters.
	missPerInstr float64 // LLC misses per application instruction
	dtlbMPKI     float64 // DTLB misses per kilo-instruction
}

// Runner is a planned run: the spec validated, segments resolved, and
// each segment's power model compiled to flat coefficients. A Runner
// replays the same spec under different seeds without re-planning, which
// is exactly the harness's repeated-invocation methodology. A Runner is
// not safe for concurrent use (it owns one RNG and one thermal state);
// concurrent measurements each build their own. Runners replaying the
// same spec on one machine share its cached compiled plan.
type Runner struct {
	m    *Machine
	spec ExecSpec
	segs []segment

	state *runState
}

// runState is the per-run mutable state a Runner owns; everything else a
// Runner holds is immutable and shared. Pooled per machine.
type runState struct {
	rng   *fastrand.Source
	therm *thermal.Model
}

// planFor returns the machine's compiled plan for spec, building it on
// first use. Plans are immutable after construction, so one instance
// serves every concurrent Runner replaying the spec.
func (m *Machine) planFor(spec ExecSpec) ([]segment, error) {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	if segs, ok := m.plans[spec]; ok {
		return segs, nil
	}
	segs, err := m.plan(spec)
	if err != nil {
		return nil, err
	}
	if m.plans == nil {
		m.plans = make(map[ExecSpec][]segment)
	}
	m.plans[spec] = segs
	return segs, nil
}

// NewRunner validates the spec and resolves its compiled plan, reusing
// the machine's cached plan when the spec was planned before.
func (m *Machine) NewRunner(spec ExecSpec) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	segs, err := m.planFor(spec)
	if err != nil {
		return nil, err
	}
	st, _ := m.states.Get().(*runState)
	if st == nil {
		therm, err := thermal.New(m.Proc.Spec.TDPWatts)
		if err != nil {
			return nil, err
		}
		st = &runState{rng: fastrand.NewSource(0), therm: therm}
	}
	return &Runner{m: m, spec: spec, segs: segs, state: st}, nil
}

// Release returns the Runner's mutable state to the machine's pool. The
// Runner must not be used afterwards. Optional: an unreleased Runner is
// simply garbage-collected.
func (r *Runner) Release() {
	if r.state == nil {
		return
	}
	r.m.states.Put(r.state)
	r.state = nil
}

// Run executes the spec. The seed makes the run deterministic; different
// seeds model the paper's repeated invocations. sample may be nil.
func (m *Machine) Run(spec ExecSpec, seed int64, sample SampleFunc) (Result, error) {
	r, err := m.NewRunner(spec)
	if err != nil {
		return Result{}, err
	}
	return r.Run(seed, sample)
}

// Run replays the planned spec for one seed. The integration loop
// performs no heap allocations: all per-step state lives in the compiled
// kernels and the Runner's reusable RNG and thermal model.
func (r *Runner) Run(seed int64, sample SampleFunc) (Result, error) {
	rng, therm := r.state.rng, r.state.therm
	rng.Seed(seed)
	therm.Reset()
	spec := r.spec

	// Run-to-run jitter: one multiplicative draw per run, as JIT and GC
	// placement decisions persist for a run's lifetime.
	rateJitter := 1 + rng.NormFloat64()*spec.RateJitterSD
	if rateJitter < 0.5 {
		rateJitter = 0.5
	}
	powerJitter := 1 + rng.NormFloat64()*spec.PowerJitterSD
	if powerJitter < 0.7 {
		powerJitter = 0.7
	}

	var res Result
	var bd power.Breakdown
	var clockSeconds float64
	for si := range r.segs {
		sg := &r.segs[si]
		if sg.workFrac <= 0 {
			continue
		}
		segWork := spec.Work * sg.workFrac
		rate := sg.rate * rateJitter
		if rate <= 0 {
			return Result{}, fmt.Errorf("sim: non-positive rate on %s %s", r.m.Proc.Name, r.m.Cfg)
		}
		segTime := segWork / rate
		steps := stepsFor(segTime)
		dt := segTime / float64(steps)
		sins := sinTable(steps)
		for i := 0; i < steps; i++ {
			// Thermal throttle: drop turbo when the junction saturates.
			k := &sg.kern
			if sg.canThrottle && therm.Throttling() {
				k = &sg.kernThrottled
			}
			phase := 1 + 0.06*sins[i] +
				rng.NormFloat64()*0.02
			k.EvalInto(&bd, therm.TempC(), phase*powerJitter)
			w := bd.TotalWatts
			therm.Step(w, dt)
			if sample != nil {
				sample(w, dt)
			}
			res.Breakdown.UncoreWatts += bd.UncoreWatts * dt
			res.Breakdown.CoreDynWatts += bd.CoreDynWatts * dt
			res.Breakdown.CoreStaticWatts += bd.CoreStaticWatts * dt
			res.Breakdown.GatedWatts += bd.GatedWatts * dt
			res.AvgWatts += w * dt
			if w > res.PeakWatts {
				res.PeakWatts = w
			}
			clockSeconds += k.ClockGHz * dt
			res.Steps++
		}
		res.Seconds += segTime

		// Hardware counters for the segment (Section 3.1's pairing of
		// events with power).
		serviceInstr := segWork * spec.ServiceWork
		res.Counters.Add(counters.Counters{
			Cycles:              segTime * sg.op.ClockGHz * 1e9 * float64(sg.activeCores),
			Instructions:        segWork + serviceInstr,
			AppInstructions:     segWork,
			ServiceInstructions: serviceInstr,
			LLCMisses:           segWork * sg.missPerInstr,
			DTLBMisses:          segWork * sg.dtlbMPKI / 1000,
			BranchInstructions:  segWork * spec.BranchWeight * 0.2,
		})
	}
	if res.Seconds <= 0 {
		return Result{}, errors.New("sim: run completed no work")
	}
	res.AvgWatts /= res.Seconds
	res.Breakdown.UncoreWatts /= res.Seconds
	res.Breakdown.CoreDynWatts /= res.Seconds
	res.Breakdown.CoreStaticWatts /= res.Seconds
	res.Breakdown.GatedWatts /= res.Seconds
	res.Breakdown.TotalWatts = res.Breakdown.UncoreWatts + res.Breakdown.CoreDynWatts +
		res.Breakdown.CoreStaticWatts + res.Breakdown.GatedWatts
	res.EnergyJ = res.AvgWatts * res.Seconds
	res.AvgClockGHz = clockSeconds / res.Seconds
	return res, nil
}

// stepsFor bounds the integration cost: short Java iterations take tens
// of steps; thousand-second SPEC runs take a few hundred larger ones.
func stepsFor(segSeconds float64) int {
	steps := int(segSeconds / 0.02) // the logger's native 50Hz
	if steps < 24 {
		steps = 24
	}
	if steps > 360 {
		steps = 360
	}
	return steps
}

// sinTables memoizes the per-step phase modulation sin(2*pi*i/period)
// per step count. The phase period is a pure function of the step count
// and stepsFor clamps counts to [24, 360], so at most 337 small tables
// exist process-wide, and each entry holds the exact float the inline
// math.Sin call produced before — the modulation is bit-identical.
var sinTables sync.Map // int -> []float64

// sinTable returns the phase table for a step count.
func sinTable(steps int) []float64 {
	if t, ok := sinTables.Load(steps); ok {
		return t.([]float64)
	}
	phasePeriod := math.Max(8, float64(steps)/3)
	t := make([]float64, steps)
	for i := range t {
		t[i] = math.Sin(2 * math.Pi * float64(i) / phasePeriod)
	}
	sinTables.Store(steps, t)
	return t
}
