package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/proc"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fill-duration distribution: how long uncached cell computations take
// on this backend, the latency the cache exists to amortize. Exported
// through /metricsz.
var fillHist = registry.Histogram("powerperfd_cell_fill_seconds",
	"Wall time of uncached measurement cell fills (cache misses only).")

// Options configures a Server. The zero value selects sane defaults.
type Options struct {
	// Seed is the daemon's study seed: the default for measure requests,
	// and the seed of the experiments and dataset endpoints. Every value,
	// 0 included, is a seed; 42 is the committed dataset's.
	Seed int64
	// Workers is the measurement worker count; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the measurement queue; <= 0 selects 1024.
	QueueDepth int
	// CacheCapacity bounds the measurement cache in cells; <= 0 selects
	// 4 full study grids (about 11k cells).
	CacheCapacity int
	// TraceBuffer bounds the tracer's completed-span ring served at
	// /v1/traces; <= 0 selects telemetry.DefaultSpanBuffer.
	TraceBuffer int
	// StreamKeepAlive is the heartbeat cadence of /v1/measure?stream=1
	// responses while no cell is ready; <= 0 selects the 5s default.
	// Tests shorten it to exercise keep-alive handling quickly.
	StreamKeepAlive time.Duration
	// Store, when non-nil, attaches the persistent study store: every
	// completed /v1/measure batch is durably recorded through an async
	// ingest queue, and the /v1/studies query API mounts. The server
	// does not own the store; the caller closes it after Drain returns.
	Store *store.Store
	// SLO, when non-nil, attaches the service-level-objective engine:
	// the observe middleware feeds the stock objectives (see
	// DefaultSLOConfig), burn-rate alerts walk the monitor's detector
	// lifecycle, /v1/sloz mounts, and slo_* gauges join /metricsz. A
	// durability objective with no Source is bound to the study-ingest
	// counters automatically when a store is attached.
	SLO *slo.Config
	// TailSampling, when non-nil, switches the tracer to tail-based
	// sampling: whole traces are kept when any span is slow or errored,
	// probabilistically otherwise. Nil keeps every span (the
	// pre-sampling behavior).
	TailSampling *telemetry.TailPolicy
	// Hooks injects faults and latency into the measurement path for
	// tests; nil in production.
	Hooks *Hooks
}

// Hooks are test seams. BeforeMeasure runs inside the worker pool before
// each uncached cell computation: sleeping there simulates a straggling
// backend, returning an error simulates a failing one. It is never
// called on cache hits, mirroring where real latency and faults live.
type Hooks struct {
	BeforeMeasure func(seed int64, benchmark, processor string) error
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 4 * 45 * 61
	}
	return o
}

// Server is the powerperfd core: the measurement cache, the worker pool
// and the per-seed harnesses, the one path every cell the daemon serves
// is computed through. It is wired to HTTP by Handler (handlers.go).
type Server struct {
	opts  Options
	cache *Cache
	pool  *workPool

	harnesses *harnessCache

	// tracer retains recent request spans for /v1/traces; logger is the
	// daemon's structured log. Both are always on — the ring is bounded
	// and a span is two clock reads plus a ring slot.
	tracer *telemetry.Tracer
	logger *slog.Logger

	start    time.Time
	draining atomic.Bool

	reqMeasure       atomic.Int64
	reqMeasureStream atomic.Int64
	reqExperiments   atomic.Int64
	reqDataset       atomic.Int64

	// ingest is the async write path into opts.Store; nil when no store
	// is attached.
	ingest *studyIngest

	// mon, when attached, contributes /v1/alertz and /debug/dashboard to
	// the handler — the daemon's own view of the fleet it belongs to.
	mon *monitor.Monitor

	// sloEng, when attached, is fed by the observe middleware and served
	// at /v1/sloz; nil when Options.SLO was not set.
	sloEng *slo.Engine
}

// NewServer builds a server; no measurement work happens until the first
// request.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		cache:     NewCache(opts.CacheCapacity),
		pool:      newWorkPool(opts.Workers, opts.QueueDepth),
		harnesses: newHarnessCache(harnessCapacity),
		tracer:    telemetry.NewTracer(opts.TraceBuffer),
		logger:    telemetry.Logger("powerperfd"),
		start:     time.Now(),
	}
	if opts.Store != nil {
		s.ingest = newStudyIngest(opts.Store, s.logger)
	}
	if opts.TailSampling != nil {
		s.tracer.SetTailPolicy(opts.TailSampling)
	}
	if opts.SLO != nil {
		cfg := *opts.SLO
		cfg.Objectives = append([]slo.Objective(nil), cfg.Objectives...)
		if cfg.Pinner == nil {
			// Breach exemplars link to traces in this tracer's ring; pin
			// them there so the links outlive ring eviction and
			// tail-sampling drops for as long as their alerts are live.
			cfg.Pinner = s.tracer
		}
		for i := range cfg.Objectives {
			o := &cfg.Objectives[i]
			if o.Kind == slo.KindDurability && o.Source == nil && s.ingest != nil {
				ing := s.ingest
				o.Source = func() (good, total int64) {
					st := ing.stats()
					return st.Recorded, st.Recorded + st.Dropped + st.WriteErrors
				}
			}
		}
		eng, err := slo.New(cfg)
		if err != nil {
			// A bad objective set must not take the serving path down;
			// the daemon runs without SLO tracking and says so.
			s.logger.Error("slo engine disabled", slog.Any("error", err))
		} else {
			s.sloEng = eng
		}
	}
	return s
}

// AttachMonitor hands the server a fleet monitor; the next Handler()
// call mounts GET /v1/alertz (the alert list, JSON) and
// GET /debug/dashboard (the self-contained HTML fleet view). Attach
// before building the handler.
func (s *Server) AttachMonitor(m *monitor.Monitor) { s.mon = m }

// Tracer exposes the server's span recorder (tests inspect it; the
// /v1/traces endpoint serves it).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Drain begins graceful shutdown: health goes unhealthy, new API work is
// rejected, queued and in-flight cells run to completion, and only then
// does the study ingest flush and fsync — so a SIGTERM mid-study either
// records the whole study or none of it, never a partial one. It
// returns once the pool is idle and the store is sealed. Safe to call
// more than once.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.pool.Close()
	s.ingest.close()
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// measureCell computes (or serves from cache) one cell under one seed,
// whose cache key is key, admitting uncached fills through the given
// worker-pool lane. The cache holds the full harness Measurement, so
// one resident entry serves both summary and full-detail requests. Each
// cell records a span annotated with its cache outcome and study seed;
// uncached fills also record a service.queue child covering the time
// spent waiting for a worker lane (critical-path analytics split queue
// wait from kernel compute with it), and feed the fill-duration
// histogram.
func (s *Server) measureCell(ctx context.Context, seed int64, l lane, c harness.Job, key string) (*harness.Measurement, error) {
	cellCtx, span := s.startCellSpan(ctx, seed, c)
	v, outcome, err := s.cache.GetOrComputeOutcome(ctx, key, func() (any, error) {
		fillStart := time.Now()
		_, qspan := s.tracer.StartSpan(cellCtx, "service.queue")
		v, err := s.pool.DoLane(ctx, l, func() (any, error) {
			// The worker has picked this cell up: queue wait ends here.
			// End is first-call-wins, so the safety net below is a no-op
			// on this path.
			qspan.End()
			if s.opts.Hooks != nil && s.opts.Hooks.BeforeMeasure != nil {
				if err := s.opts.Hooks.BeforeMeasure(seed, c.Bench.Name, c.CP.Proc.Name); err != nil {
					return nil, err
				}
			}
			h, err := s.harnesses.get(seed)
			if err != nil {
				return nil, err
			}
			return h.MeasureUncached(c.Bench, c.CP)
		})
		// Admission failures (queue full, draining, canceled context)
		// never run the worker fn; close the queue span on their behalf.
		qspan.End()
		fillHist.Observe(time.Since(fillStart))
		return v, err
	})
	span.Annotate(telemetry.String("outcome", outcome.String()))
	if err != nil {
		span.Annotate(telemetry.String("error", err.Error()))
		span.End()
		return nil, err
	}
	span.End()
	return v.(*harness.Measurement), nil
}

// residentCell returns the measurement the cache holds for key, c's
// key under seed, when its fill has completed and succeeded, and
// records it as measureCell records a hit: the cache's hit counter and
// a service.cell span with outcome=hit. Otherwise it records nothing
// and returns nil, leaving the cell to measureCell.
func (s *Server) residentCell(ctx context.Context, seed int64, c harness.Job, key string) *harness.Measurement {
	v, ok := s.cache.Resident(key)
	if !ok {
		return nil
	}
	_, span := s.startCellSpan(ctx, seed, c)
	span.Annotate(telemetry.String("outcome", OutcomeHit.String()))
	span.End()
	return v.(*harness.Measurement)
}

// startCellSpan starts the service.cell span of c under seed. One slot
// beyond the three start attributes holds the outcome, so the caller's
// Annotate appends in place and the span keeps one 4-slot array
// instead of growing to 6; only a failed cell's error annotation grows
// it.
func (s *Server) startCellSpan(ctx context.Context, seed int64, c harness.Job) (context.Context, *telemetry.Span) {
	attrs := make([]telemetry.Attr, 3, 4)
	attrs[0] = telemetry.String("benchmark", c.Bench.Name)
	attrs[1] = telemetry.String("processor", c.CP.Proc.Name)
	attrs[2] = telemetry.String("seed", strconv.FormatInt(seed, 10))
	return s.tracer.StartSpan(ctx, "service.cell", attrs...)
}

// setCellResult flattens a measurement, measured for c, into res, the
// wire form. A non-nil d selects the reconstruction-grade shape: the
// detail is written into d, reusing its run-sample storage when that is
// large enough, and res.Full points at it.
func setCellResult(res *CellResult, d *CellDetail, c harness.Job, m *harness.Measurement) {
	*res = CellResult{
		Benchmark:  c.Bench.Name,
		Processor:  c.CP.Proc.Name,
		Config:     ConfigToJSON(c.CP.Config),
		Suite:      string(c.Bench.Suite),
		Group:      c.Bench.Group.String(),
		Runs:       len(m.Runs),
		Seconds:    m.Seconds,
		Watts:      m.Watts,
		EnergyJ:    m.EnergyJ,
		TimeCIRel:  m.TimeCI.Relative(),
		PowerCIRel: m.PowerCI.Relative(),
	}
	if d == nil {
		return
	}
	runs := d.RunSamples
	if runs == nil || cap(runs) < len(m.Runs) {
		runs = make([]RunJSON, len(m.Runs))
	}
	runs = runs[:len(m.Runs)]
	for i, r := range m.Runs {
		runs[i] = RunJSON{Seconds: r.Seconds, Watts: r.Watts, Counters: CountersToJSON(r.Counters)}
	}
	*d = CellDetail{
		RunSamples: runs,
		Counters:   CountersToJSON(m.Counters),
		TimeCI:     CIToJSON(m.TimeCI),
		PowerCI:    CIToJSON(m.PowerCI),
	}
	res.Full = d
}

// Stats is a snapshot of the server counters: /metricsz renders it,
// and in-process callers read it directly.
type Stats struct {
	Seed     int64
	UptimeS  float64
	Draining bool
	Cache    CacheStats
	Queue    QueueStats
	Requests ReqStats
	// Store reports the persistent study store; nil when the daemon
	// runs without one.
	Store *StoreStats
}

// QueueStats reports worker-pool pressure.
type QueueStats struct {
	Depth    int
	Capacity int
	Inflight int64
}

// ReqStats counts requests per endpoint family. MeasureStreams counts
// the subset of measure requests served as a stream of binary frames.
type ReqStats struct {
	Measure        int64
	MeasureStreams int64
	Experiments    int64
	Dataset        int64
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Seed:     s.opts.Seed,
		UptimeS:  time.Since(s.start).Seconds(),
		Draining: s.draining.Load(),
		Cache:    s.cache.Stats(),
		Queue: QueueStats{
			Depth:    s.pool.QueueDepth(),
			Capacity: s.opts.QueueDepth,
			Inflight: s.pool.Inflight(),
		},
		Requests: ReqStats{
			Measure:        s.reqMeasure.Load(),
			MeasureStreams: s.reqMeasureStream.Load(),
			Experiments:    s.reqExperiments.Load(),
			Dataset:        s.reqDataset.Load(),
		},
		Store: s.ingest.stats(),
	}
}

// harnessCapacity is how many per-seed harnesses a server keeps
// resident.
const harnessCapacity = 4

// harnessCache is a small LRU of per-seed harnesses. Building a harness
// calibrates the whole sensor rig, so residents are worth keeping, but
// seeds arrive from requests and must not accumulate without bound.
type harnessCache struct {
	mu  sync.Mutex
	cap int
	ent map[int64]*list.Element
	lru list.List // values are *harnessEntry
}

type harnessEntry struct {
	seed int64
	once sync.Once
	h    *harness.Harness
	err  error
}

func newHarnessCache(capacity int) *harnessCache {
	return &harnessCache{cap: capacity, ent: make(map[int64]*list.Element)}
}

func (hc *harnessCache) get(seed int64) (*harness.Harness, error) {
	hc.mu.Lock()
	el, ok := hc.ent[seed]
	if ok {
		hc.lru.MoveToFront(el)
	} else {
		el = hc.lru.PushFront(&harnessEntry{seed: seed})
		hc.ent[seed] = el
		for hc.lru.Len() > hc.cap {
			tail := hc.lru.Back()
			delete(hc.ent, tail.Value.(*harnessEntry).seed)
			hc.lru.Remove(tail)
		}
	}
	e := el.Value.(*harnessEntry)
	hc.mu.Unlock()
	// Calibration happens outside the lock; Once arbitrates concurrent
	// first users of a seed.
	e.once.Do(func() { e.h, e.err = harness.New(e.seed) })
	if e.err != nil {
		return nil, fmt.Errorf("service: harness for seed %d: %w", e.seed, e.err)
	}
	return e.h, nil
}

// Guard: the stock config space and workload must stay consistent with
// MaxCells (two full grids); a drift here would silently shrink the
// request bound.
var _ = func() struct{} {
	if MaxCells < len(proc.ConfigSpace())*len(workload.All()) {
		panic("service: MaxCells below one full study grid")
	}
	return struct{}{}
}()

// errNotFound marks unknown experiment ids for a 404 rather than 500.
var errNotFound = errors.New("service: not found")
