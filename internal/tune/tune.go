// Package tune is the experiment-grid auto-tuner: it sweeps the
// study pipeline's performance knobs — backend worker count, cache
// shard count, and the scheduler's lease size — over a declarative
// grid, runs a short calibration study per point through the
// work-stealing scheduler against in-process backends, and selects the
// knee of the cost/benefit curve.
//
// Every knob it sweeps is pure scheduling: the determinism contract
// guarantees the measured bytes are identical at every grid point, so
// the tuner only ever trades wall time against resource footprint,
// never correctness. The chosen point is emitted as ready-to-paste
// flags for powerperfd and fullstudy.
package tune

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
)

// Grid declares the sweep: the cross product of every listed value.
// Empty axes collapse to the corresponding default (a single point on
// that axis), so a Grid{BatchSizes: []int{16, 61}} sweeps batch size
// alone.
type Grid struct {
	// Workers is the backend measurement worker count
	// (service.Options.Workers); 0 entries mean GOMAXPROCS.
	Workers []int
	// CacheShards is the backend cache shard count
	// (service.Options.CacheShards); 0 entries mean the default (16).
	CacheShards []int
	// BatchSizes is the scheduler's cells-per-lease
	// (cluster.SchedulerOptions.LeaseCells, fullstudy -batch-size);
	// 0 entries mean the default (16).
	BatchSizes []int
}

// QuickGrid is the default sweep: a coarse pass over the knobs that
// move the served-study benchmark, small enough to finish in seconds.
func QuickGrid() Grid {
	return Grid{
		Workers:     []int{0},
		CacheShards: []int{16},
		BatchSizes:  []int{16, 61, 122},
	}
}

// FullGrid is the exhaustive sweep for commissioning new hardware.
func FullGrid() Grid {
	return Grid{
		Workers:     []int{0, 1, 2, 4, 8},
		CacheShards: []int{1, 4, 16, 64},
		BatchSizes:  []int{8, 16, 32, 61, 122},
	}
}

// Point is one grid cell: a complete knob assignment.
type Point struct {
	Workers     int `json:"workers"`
	CacheShards int `json:"cache_shards"`
	BatchSize   int `json:"batch_size"`
}

// String renders the point compactly for logs and reports.
func (p Point) String() string {
	return fmt.Sprintf("workers=%d shards=%d batch=%d", p.Workers, p.CacheShards, p.BatchSize)
}

// Points expands the grid into its cross product in deterministic
// axis-major order (workers outermost, batch size innermost), so two
// tuner runs visit identical points in identical order.
func (g Grid) Points() []Point {
	workers := orDefault(g.Workers)
	shards := orDefault(g.CacheShards)
	batches := orDefault(g.BatchSizes)
	pts := make([]Point, 0, len(workers)*len(shards)*len(batches))
	for _, w := range workers {
		for _, s := range shards {
			for _, b := range batches {
				pts = append(pts, Point{Workers: w, CacheShards: s, BatchSize: b})
			}
		}
	}
	return pts
}

func orDefault(vals []int) []int {
	if len(vals) == 0 {
		return []int{0}
	}
	return vals
}

// Config shapes the calibration study run at every grid point.
type Config struct {
	// Seed is the study seed; measurements are identical at every point
	// regardless, but the seed keys backend caches. 0 selects 42.
	Seed int64
	// Configs is how many stock configurations the calibration grid
	// covers (x 61 benchmarks each); <= 0 selects 2. More configurations
	// cost proportionally more per point and separate points better.
	Configs int
	// Repeats is how many times each point's study runs; the fastest
	// repeat scores the point (minimum is the standard noise-rejecting
	// summary for wall-clock measurement). <= 0 selects 1. Backends are
	// rebuilt per repeat so every repeat pays the same cold cache.
	Repeats int
	// Backends is how many in-process powerperfd instances the
	// calibration scheduler spans; <= 0 selects 2.
	Backends int
	// Logf, when set, receives one line per scored point.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Configs <= 0 {
		c.Configs = 2
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.Backends <= 0 {
		c.Backends = 2
	}
	return c
}

// Result is one scored grid point.
type Result struct {
	Point   Point   `json:"point"`
	Seconds float64 `json:"seconds"` // fastest repeat's wall time
	Cells   int     `json:"cells"`
}

// Report is the tuner's output: every scored point plus the selection.
type Report struct {
	Seed     int64    `json:"seed"`
	Configs  int      `json:"configs"`
	Backends int      `json:"backends"`
	Results  []Result `json:"results"`
	// Best is the fastest point's wall time; Knee is the selected point
	// and KneeSeconds its wall time (within KneeTolerance of Best).
	Best        float64 `json:"best_seconds"`
	Knee        Point   `json:"knee"`
	KneeSeconds float64 `json:"knee_seconds"`
}

// KneeTolerance is how far above the fastest point a candidate may sit
// and still be considered knee-eligible: within 10%, differences are
// noise or not worth the extra resources.
const KneeTolerance = 1.10

// selectKnee picks the cheapest point whose time is within
// KneeTolerance of the best. Cost is resource-lexicographic — fewer
// workers, then fewer shards, then smaller batches — so the tuner
// prefers the most frugal configuration that keeps the speed. (Workers/shards/batch 0 mean "default", which is treated as
// costlier than any explicit smaller value by comparing the resolved
// magnitude.)
func selectKnee(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, errors.New("tune: no results to select from")
	}
	best := results[0].Seconds
	for _, r := range results[1:] {
		if r.Seconds < best {
			best = r.Seconds
		}
	}
	var knee Result
	found := false
	for _, r := range results {
		if r.Seconds > best*KneeTolerance {
			continue
		}
		if !found || cheaper(r.Point, knee.Point) {
			knee, found = r, true
		}
	}
	return knee, nil
}

// cheaper orders points by resource footprint, lexicographically.
func cheaper(a, b Point) bool {
	if x, y := resolved(a.Workers, 9999), resolved(b.Workers, 9999); x != y {
		return x < y
	}
	if x, y := resolved(a.CacheShards, 16), resolved(b.CacheShards, 16); x != y {
		return x < y
	}
	return resolved(a.BatchSize, 16) < resolved(b.BatchSize, 16)
}

// resolved maps the 0 = "default" sentinel to the default's magnitude
// for cost comparison.
func resolved(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Run sweeps the grid: for each point it stands up Config.Backends
// in-process powerperfd instances with the point's backend knobs,
// fronts them with the work-stealing scheduler at the point's lease
// size — the scheduler and lease size fullstudy -backends uses — and
// times one calibration study per repeat. Backends are rebuilt per
// repeat, so every repeat measures the same cold-cache work.
func Run(ctx context.Context, cfg Config, grid Grid) (*Report, error) {
	cfg = cfg.withDefaults()
	pts := grid.Points()
	if len(pts) == 0 {
		return nil, errors.New("tune: empty grid")
	}
	space := proc.StockConfigs()
	if cfg.Configs > len(space) {
		cfg.Configs = len(space)
	}
	jobs := harness.GridJobs(space[:cfg.Configs], nil)

	rep := &Report{Seed: cfg.Seed, Configs: cfg.Configs, Backends: cfg.Backends,
		Results: make([]Result, 0, len(pts))}
	for _, p := range pts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		secs, err := scorePoint(ctx, cfg, p, jobs)
		if err != nil {
			return nil, fmt.Errorf("tune: point %s: %w", p, err)
		}
		rep.Results = append(rep.Results, Result{Point: p, Seconds: secs, Cells: len(jobs)})
		if cfg.Logf != nil {
			cfg.Logf("tune: %s  %.3fs (%d cells)", p, secs, len(jobs))
		}
	}
	knee, err := selectKnee(rep.Results)
	if err != nil {
		return nil, err
	}
	rep.Knee, rep.KneeSeconds = knee.Point, knee.Seconds
	rep.Best = knee.Seconds
	for _, r := range rep.Results {
		if r.Seconds < rep.Best {
			rep.Best = r.Seconds
		}
	}
	return rep, nil
}

// scorePoint times Config.Repeats cold-cache studies at one point and
// returns the fastest.
func scorePoint(ctx context.Context, cfg Config, p Point, jobs []harness.Job) (float64, error) {
	best := 0.0
	for rep := 0; rep < cfg.Repeats; rep++ {
		secs, err := runOnce(ctx, cfg, p, jobs)
		if err != nil {
			return 0, err
		}
		if rep == 0 || secs < best {
			best = secs
		}
	}
	return best, nil
}

func runOnce(ctx context.Context, cfg Config, p Point, jobs []harness.Job) (float64, error) {
	servers := make([]*httptest.Server, 0, cfg.Backends)
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
	}()
	urls := make([]string, 0, cfg.Backends)
	for i := 0; i < cfg.Backends; i++ {
		ts := httptest.NewServer(service.NewServer(service.Options{
			Seed:        cfg.Seed,
			Workers:     p.Workers,
			CacheShards: p.CacheShards,
		}).Handler())
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	seed := cfg.Seed
	s, err := cluster.NewScheduler(urls, cluster.SchedulerOptions{Seed: &seed, LeaseCells: p.BatchSize})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := s.MeasureBatch(ctx, jobs, 0); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// PowerperfdFlags renders the knee's backend knobs as powerperfd flags.
func (r *Report) PowerperfdFlags() string {
	return fmt.Sprintf("-workers %d -cache-shards %d",
		resolved(r.Knee.Workers, 0), resolved(r.Knee.CacheShards, 16))
}

// FullstudyFlags renders the knee's scheduler knob as fullstudy flags.
func (r *Report) FullstudyFlags() string {
	return fmt.Sprintf("-batch-size %d", resolved(r.Knee.BatchSize, 16))
}

// Env renders the knee as environment assignments for wrapper scripts.
func (r *Report) Env() []string {
	return []string{
		fmt.Sprintf("POWERPERF_WORKERS=%d", resolved(r.Knee.Workers, 0)),
		fmt.Sprintf("POWERPERF_CACHE_SHARDS=%d", resolved(r.Knee.CacheShards, 16)),
		fmt.Sprintf("POWERPERF_BATCH_SIZE=%d", resolved(r.Knee.BatchSize, 16)),
	}
}
