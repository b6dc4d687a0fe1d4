package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/proc"
)

// TestKernelMatchesChip pins the compiled kernel to the analytic model:
// on every processor at every V/f point, for random per-core loads
// (active, idle-enabled or disabled, with random utilization and SMT),
// junction temperatures and activity scales, Compile(...).Eval(T, s)
// equals Chip term by term within 1e-12 relative, with Chip given each
// active core's activity as clamp(BaseAct*s, ActivityFloor,
// ActivityCeil). The two sum the same terms in different orders, so
// they may differ by a few ulps, never by more.
func TestKernelMatchesChip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const draws = 50 // load pictures per V/f point, each at several (T, s)
	cases := 0
	worst := 0.0
	for _, p := range proc.Fleet() {
		for _, vf := range p.Model.VF {
			for d := 0; d < draws; d++ {
				loads := make([]CoreLoad, p.Spec.Cores)
				for i := range loads {
					switch rng.Intn(3) {
					case 0:
						loads[i] = CoreLoad{
							Active: true, Enabled: true,
							Activity:    1.2 * rng.Float64(),
							Utilization: rng.Float64(),
							SMTActive:   p.Spec.SMTWays > 1 && rng.Intn(2) == 0,
						}
					case 1:
						loads[i] = CoreLoad{Enabled: true}
					}
				}
				k, err := Compile(p, Operating{ClockGHz: vf.GHz, Volts: vf.Volts}, loads)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < 4; e++ {
					tempC, s := 20+80*rng.Float64(), 2*rng.Float64()
					scaled := append([]CoreLoad(nil), loads...)
					for i := range scaled {
						if scaled[i].Active {
							scaled[i].Activity = min(max(scaled[i].Activity*s, ActivityFloor), ActivityCeil)
						}
					}
					want, err := Chip(p, Operating{ClockGHz: vf.GHz, Volts: vf.Volts, TempC: tempC}, scaled)
					if err != nil {
						t.Fatal(err)
					}
					got := k.Eval(tempC, s)
					for _, term := range []struct {
						name      string
						got, want float64
					}{
						{"uncore", got.UncoreWatts, want.UncoreWatts},
						{"dynamic", got.CoreDynWatts, want.CoreDynWatts},
						{"static", got.CoreStaticWatts, want.CoreStaticWatts},
						{"gated", got.GatedWatts, want.GatedWatts},
						{"total", got.TotalWatts, want.TotalWatts},
					} {
						diff := math.Abs(term.got - term.want)
						if diff == 0 {
							continue
						}
						rel := diff / math.Max(math.Abs(term.got), math.Abs(term.want))
						worst = math.Max(worst, rel)
						if rel > 1e-12 {
							t.Fatalf("%s at %v GHz, T=%v, s=%v, loads %+v: kernel %s %v, Chip %v (relative %g)",
								p.Name, vf.GHz, tempC, s, loads, term.name, term.got, term.want, rel)
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases, worst relative difference %g", cases, worst)
}
