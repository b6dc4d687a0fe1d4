// Package proc describes the experimental processor fleet: the eight Intel
// IA32 processors of Table 3, their microarchitectures, process
// technologies, DVFS operating points, and the hardware configuration
// space (cores, SMT, clock, Turbo Boost) that the paper controls through
// the BIOS (Section 2.8).
//
// Each Processor carries two kinds of data:
//
//   - the published specifications from Table 3 (release date/price, core
//     and SMT counts, LLC size, clock, node, transistor count, die area,
//     VID range, TDP, memory configuration), used directly by Table 3 and
//     the per-transistor analysis of Figure 11(b); and
//
//   - model parameters for the performance/power simulator (issue width,
//     ordering, effective memory latency and bandwidth, per-structure
//     power coefficients), set from public microarchitectural facts and
//     calibrated so the fleet reproduces the paper's measured shapes.
//     DESIGN.md documents this substitution.
package proc

import (
	"errors"
	"fmt"
	"time"
)

// Microarch identifies one of the four microarchitecture families in the
// study.
type Microarch string

// The four microarchitectures of Table 3.
const (
	NetBurst Microarch = "NetBurst" // Pentium 4: deep pipeline, trace cache
	Core     Microarch = "Core"     // Conroe/Kentsfield/Wolfdale
	Bonnell  Microarch = "Bonnell"  // Atom: dual-issue in-order
	Nehalem  Microarch = "Nehalem"  // Bloomfield/Clarkdale
)

// VFPoint is one DVFS operating point: a clock frequency and the core
// voltage the part requires at that frequency.
type VFPoint struct {
	GHz   float64
	Volts float64
}

// Spec holds the published Table 3 data for one processor.
type Spec struct {
	SSpec        string  // Intel sSpec ordering code, e.g. "SLBCH"
	Release      string  // release date, e.g. "Nov '08"
	PriceUSD     float64 // release price; 0 when unpublished (Pentium 4)
	Cores        int     // physical cores
	SMTWays      int     // hardware threads per core (1 = no SMT)
	LLCBytes     int64   // last-level cache size
	ClockGHz     float64 // stock base clock
	NodeNM       int     // process technology
	TransistorsM float64 // transistors in the package, millions
	DieMM2       float64 // die area
	VIDMinV      float64 // VID range low (0 when unpublished)
	VIDMaxV      float64 // VID range high
	TDPWatts     float64 // thermal design power
	FSBMHz       float64 // front-side bus, 0 for QPI/DMI parts
	MemBWGBs     float64 // memory bandwidth for FSB-less parts
	DRAM         string  // DRAM technology
}

// Model holds the simulator parameters for one processor. These express
// the microarchitecture in the performance/power model's terms.
type Model struct {
	IssueWidth    int     // peak instructions issued per cycle
	OutOfOrder    bool    // OoO window vs in-order pipeline
	PipelineDepth int     // stages; deep pipelines pay higher penalties
	IssueEff      float64 // fraction of workload ILP converted into issue
	MLPHiding     float64 // fraction of memory stall hidden by OoO/MLP, 0..1
	BranchPenalty float64 // extra CPI per branch-heavy workload unit
	SMTFillEff    float64 // how well a 2nd thread fills idle issue slots
	SMTOverhead   float64 // fixed throughput tax of SMT resource partitioning

	MemLatencyNs float64 // effective DRAM access latency seen by a miss
	DRAMBWGBs    float64 // sustainable memory bandwidth
	L2KBPerCore  float64 // effective private/mid-level capacity per core

	// Power model (see internal/power): P = uncore + sum over cores of
	// dynamic + static, with dynamic scaled by f*V^2 relative to the
	// stock operating point and by workload activity.
	UncoreWatts   float64 // chip-wide always-on power at stock voltage
	CoreDynWatts  float64 // one core's dynamic power at stock f, V, activity=1
	CoreStatWatts float64 // one core's leakage at stock voltage, nominal temp
	GatingEff     float64 // fraction of an idle core's leakage removed by gating
	IdleDynFrac   float64 // dynamic power an idle enabled core still draws (pre-Nehalem parts keep clocking)
	SMTActivity   float64 // extra core activity when a 2nd SMT thread runs
	IdleActivity  float64 // activity floor of an active but stalled core

	// Turbo Boost (Nehalem parts only; zero elsewhere).
	TurboStepGHz    float64 // one turbo step (133 MHz on Nehalem)
	TurboStepsAll   int     // steps available with >1 active core
	TurboStepsOne   int     // steps available with exactly 1 active core
	TurboVoltsBoost float64 // extra volts applied while boosting

	// VF is the DVFS table from the part's minimum to maximum clock.
	// Entries must be ordered by ascending frequency.
	VF []VFPoint
}

// Processor is one member of the experimental fleet.
type Processor struct {
	// Name is the paper's shorthand, e.g. "i7 (45)".
	Name string
	// LongName is the marketing name, e.g. "Core i7 920".
	LongName string
	// Arch is the microarchitecture family.
	Arch Microarch
	// Codename is the family codename, e.g. "Bloomfield".
	Codename string
	Spec     Spec
	Model    Model
}

// HWContexts returns the total hardware contexts (cores x SMT ways).
func (p *Processor) HWContexts() int { return p.Spec.Cores * p.Spec.SMTWays }

// HasTurbo reports whether the part implements Turbo Boost.
func (p *Processor) HasTurbo() bool { return p.Model.TurboStepsAll > 0 }

// MinClock returns the lowest DVFS frequency.
func (p *Processor) MinClock() float64 { return p.Model.VF[0].GHz }

// MaxClock returns the highest DVFS frequency (the stock clock).
func (p *Processor) MaxClock() float64 { return p.Model.VF[len(p.Model.VF)-1].GHz }

// VoltsAt interpolates the DVFS table to the core voltage at the given
// frequency. Frequencies outside the table clamp to its ends.
func (p *Processor) VoltsAt(ghz float64) float64 {
	vf := p.Model.VF
	if ghz <= vf[0].GHz {
		return vf[0].Volts
	}
	last := vf[len(vf)-1]
	if ghz >= last.GHz {
		// Extrapolate linearly above the table for turbo frequencies.
		if len(vf) >= 2 {
			prev := vf[len(vf)-2]
			slope := (last.Volts - prev.Volts) / (last.GHz - prev.GHz)
			return last.Volts + slope*(ghz-last.GHz)
		}
		return last.Volts
	}
	for i := 1; i < len(vf); i++ {
		if ghz <= vf[i].GHz {
			lo, hi := vf[i-1], vf[i]
			frac := (ghz - lo.GHz) / (hi.GHz - lo.GHz)
			return lo.Volts + frac*(hi.Volts-lo.Volts)
		}
	}
	return last.Volts
}

// ReleaseTime parses the Release field ("Nov '08") into a time for
// historical ordering. The Pentium 4's "May '03" parses like the rest.
func (p *Processor) ReleaseTime() (time.Time, error) {
	t, err := time.Parse("Jan '06", p.Spec.Release)
	if err != nil {
		return time.Time{}, fmt.Errorf("proc: bad release date %q: %w", p.Spec.Release, err)
	}
	return t, nil
}

// Config is one BIOS-style hardware configuration of a processor: the
// paper's controlled-experiment knobs from Section 2.8.
type Config struct {
	Cores    int     // enabled cores, 1..Spec.Cores
	SMTWays  int     // enabled threads per core, 1..Spec.SMTWays
	ClockGHz float64 // operating frequency, within the DVFS range
	Turbo    bool    // Turbo Boost enabled (only at max clock, Nehalem only)
}

// Contexts returns the configuration's hardware contexts.
func (c Config) Contexts() int { return c.Cores * c.SMTWays }

// String renders the paper's compact notation, e.g. "4C2T@2.7GHz" or
// "4C2T@2.7GHz TB" with Turbo Boost on. It is a display label (the CSVs'
// configuration column): its clock rounds to 0.1 GHz, so it identifies
// no configuration and keys nothing.
func (c Config) String() string {
	s := fmt.Sprintf("%dC%dT@%.1fGHz", c.Cores, c.SMTWays, c.ClockGHz)
	if c.Turbo {
		s += " TB"
	}
	return s
}

// Stock returns the processor's stock configuration: all cores, all SMT
// ways, maximum clock, Turbo enabled where the part has it.
func (p *Processor) Stock() Config {
	return Config{
		Cores:    p.Spec.Cores,
		SMTWays:  p.Spec.SMTWays,
		ClockGHz: p.MaxClock(),
		Turbo:    p.HasTurbo(),
	}
}

// Errors returned by Validate.
var (
	ErrBadCores = errors.New("proc: core count outside the part's range")
	ErrBadSMT   = errors.New("proc: SMT ways outside the part's range")
	ErrBadClock = errors.New("proc: clock outside the part's DVFS range")
	ErrBadTurbo = errors.New("proc: turbo requires a turbo-capable part at max clock")
)

// Validate checks that the configuration is achievable on this part, the
// way the BIOS constrains the paper's experiments: cores and SMT within
// range, clock within the DVFS table, and Turbo only on Nehalem parts at
// their highest clock setting (Section 3.6).
func (p *Processor) Validate(c Config) error {
	if c.Cores < 1 || c.Cores > p.Spec.Cores {
		return fmt.Errorf("%w: %d on %s", ErrBadCores, c.Cores, p.Name)
	}
	if c.SMTWays < 1 || c.SMTWays > p.Spec.SMTWays {
		return fmt.Errorf("%w: %d on %s", ErrBadSMT, c.SMTWays, p.Name)
	}
	const tol = 1e-9
	// Negated so that a NaN clock, which compares false, fails too.
	if !(c.ClockGHz >= p.MinClock()-tol && c.ClockGHz <= p.MaxClock()+tol) {
		return fmt.Errorf("%w: %.2f on %s [%.2f, %.2f]",
			ErrBadClock, c.ClockGHz, p.Name, p.MinClock(), p.MaxClock())
	}
	if c.Turbo {
		if !p.HasTurbo() {
			return fmt.Errorf("%w: %s has no Turbo Boost", ErrBadTurbo, p.Name)
		}
		if c.ClockGHz < p.MaxClock()-tol {
			return fmt.Errorf("%w: turbo only engages at the max clock (%s at %.2f)",
				ErrBadTurbo, p.Name, c.ClockGHz)
		}
	}
	return nil
}
