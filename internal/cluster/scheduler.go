package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SchedulerOptions configures a Scheduler. The zero value selects sane
// defaults.
type SchedulerOptions struct {
	// Seed is the study seed sent with every measure request; nil
	// defaults to 42 (a pointer keeps seed 0 usable).
	Seed *int64
	// LeaseCells is how many cells one lease covers; <= 0 selects 16.
	// Each backend's home cells (see Scheduler) are sliced into leases in
	// job order, so a lease shares a configuration's benchmark row — the
	// same locality the local harness's scheduling blocks exploit — and
	// each pass has at most one partial lease per home.
	LeaseCells int
	// LeaseExpiry is how long a lease may go without delivering a cell
	// before another backend may steal it; <= 0 selects 2s. Streaming
	// makes progress observable per cell, so expiry measures stalled
	// delivery, not total lease duration — a slow-but-moving backend is
	// not stolen from.
	LeaseExpiry time.Duration
	// MaxLeaseFailures is how many failed dispatches one lease absorbs
	// before the run is declared failed; <= 0 selects 32. It bounds the
	// retry loop when the whole fleet is down.
	MaxLeaseFailures int
	// PullersPerBackend is how many concurrent lease streams each
	// backend serves when MeasureBatch is called with workers <= 0;
	// <= 0 selects 2.
	PullersPerBackend int
	// BreakerThreshold and BreakerCooldown shape the per-backend circuit
	// breaker; they default to 3 and 5s. A dead backend's pullers idle
	// on the open breaker instead of hammering it, and the half-open
	// trial is how a restarted backend rejoins.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// a puller sleeps after consecutive dispatch failures; they default
	// to 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HTTPClient overrides the transport; nil selects a dedicated client
	// with connection pooling sized to the puller count.
	HTTPClient *http.Client
	// Tracer records scheduler spans (leases, steals, re-dispatches);
	// nil disables capture. Tracing never changes the dataset's bytes.
	Tracer *telemetry.Tracer
}

const (
	// maxLeaseHolders bounds how many backends may hold one lease at
	// once: the original and one thief. First result wins per cell; the
	// loser's duplicates are discarded.
	maxLeaseHolders = 2
	// requestTimeout is the per-stream deadline. The stream's
	// keep-alives do not extend it: it bounds one lease end-to-end.
	requestTimeout = 5 * time.Minute
)

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Seed == nil {
		s := int64(42)
		o.Seed = &s
	}
	if o.LeaseCells <= 0 {
		o.LeaseCells = 16
	}
	if o.LeaseExpiry <= 0 {
		o.LeaseExpiry = 2 * time.Second
	}
	if o.MaxLeaseFailures <= 0 {
		o.MaxLeaseFailures = 32
	}
	if o.PullersPerBackend <= 0 {
		o.PullersPerBackend = 2
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// Scheduler is the pull-based work-stealing coordinator: a run's cells
// are sliced into leases, per-backend pullers pull leases from the
// shared queue as fast as their backend completes them, and results
// stream back cell by cell as binary frames (/v1/measure?stream=1). A lease
// that stalls past LeaseExpiry is stolen by an idle backend — first
// result per cell wins, duplicates are discarded — so a straggler or a
// mid-stream death costs only the unfinished remainder of its lease,
// never completed cells.
//
// Every cell has a home backend, chosen by a rendezvous Router over the
// cell's determinism tuple, and every lease holds cells of one home. A
// puller takes its own home's leases first, so a cell asked for again —
// by the next pass of a study or the next study — lands on the backend
// whose cache already holds it. The home is a preference, not
// a pin: a puller with no home lease left takes another home's idle
// lease, so a slow, dead or breaker-open backend's share moves to its
// peers, and backend speed still sets the division of labor.
//
// Each puller retries its own failures with jittered exponential backoff
// and feeds its backend's circuit breaker; a failed lease goes back to
// the queue for any puller, so failover is a re-lease. MeasureBatch
// satisfies the harness.MeasureBatch contract and returns bit-identical
// results — scheduling is invisible under the determinism contract.
type Scheduler struct {
	opts     SchedulerOptions
	seed     int64
	backends []string
	router   *Router
	clients  map[string]*Client
	breakers map[string]*Breaker
	resolver *Resolver
	tracer   *telemetry.Tracer
	logger   *slog.Logger

	leasesIssued  atomic.Int64
	steals        atomic.Int64
	redispatches  atomic.Int64
	cellsDone     atomic.Int64
	cellsDup      atomic.Int64
	cellsReq      atomic.Int64
	truncations   atomic.Int64
	dispatchFails atomic.Int64
	attr          *attribution
}

// NewScheduler builds a work-stealing scheduler over the given backend
// base URLs. Its router deduplicates the member list and picks every
// cell's home backend; a one-backend fleet homes every cell there.
func NewScheduler(backends []string, opts SchedulerOptions) (*Scheduler, error) {
	router := NewRouter(backends)
	members := router.Members()
	if len(members) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	opts = opts.withDefaults()
	hc := opts.HTTPClient
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = opts.PullersPerBackend + 1
		hc = &http.Client{Transport: tr}
	}
	s := &Scheduler{
		opts:     opts,
		seed:     *opts.Seed,
		backends: members,
		router:   router,
		clients:  make(map[string]*Client, len(members)),
		breakers: make(map[string]*Breaker, len(members)),
		resolver: NewResolver(),
		tracer:   opts.Tracer,
		logger:   telemetry.Logger("scheduler"),
		attr:     newAttribution(members),
	}
	for _, m := range members {
		s.clients[m] = NewClient(m, hc, requestTimeout)
		s.breakers[m] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return s, nil
}

// Backends returns the member set in sorted order.
func (s *Scheduler) Backends() []string { return s.backends }

// Tracer returns the scheduler's span recorder (nil when disabled).
func (s *Scheduler) Tracer() *telemetry.Tracer { return s.tracer }

// lease is one slice of a run's cells. All fields are guarded by the
// run's mutex.
type lease struct {
	id         int
	home       string // backend every covered cell routes to
	idxs       []int  // job indices covered, in job order
	remaining  int    // cells of this lease not yet delivered
	holders    int    // backends currently streaming this lease
	holderOf   map[string]int
	touched    time.Time // last dispatch or cell delivery; expiry base
	dispatched bool      // has ever been dispatched (first vs re-dispatch)
	failures   int
}

// run is the per-MeasureBatch state.
type run struct {
	s      *Scheduler
	jobs   []harness.Job
	out    []*harness.Measurement
	cancel context.CancelFunc

	mu        sync.Mutex
	done      []bool
	doneCount int
	leases    []*lease
	err       error
	wake      chan struct{} // closed and replaced to wake idle pullers
}

func newRun(s *Scheduler, jobs []harness.Job, cancel context.CancelFunc) *run {
	r := &run{
		s:      s,
		jobs:   jobs,
		out:    make([]*harness.Measurement, len(jobs)),
		cancel: cancel,
		done:   make([]bool, len(jobs)),
		wake:   make(chan struct{}),
	}
	// Each home's jobs, in job order, fill that home's open lease until
	// it holds LeaseCells, so ids follow each lease's first job and each
	// home's pullers sweep the job list front to back. With one backend
	// this is exactly the in-order slicing of the whole job list.
	open := make(map[string]*lease, len(s.backends))
	for i, j := range jobs {
		home := s.router.Route(routeKey(s.seed, j))
		l := open[home]
		if l == nil || len(l.idxs) == s.opts.LeaseCells {
			l = &lease{
				id:       len(r.leases),
				home:     home,
				idxs:     make([]int, 0, min(s.opts.LeaseCells, len(jobs)-i)),
				holderOf: make(map[string]int),
			}
			r.leases = append(r.leases, l)
			open[home] = l
		}
		l.idxs = append(l.idxs, i)
		l.remaining++
	}
	return r
}

func (r *run) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doneCount == len(r.jobs) || r.err != nil
}

// notifyLocked wakes every puller waiting in wait(); callers hold r.mu.
func (r *run) notifyLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// wait blocks until woken, until the poll interval elapses (so expired
// leases are noticed without a dedicated timer per lease), or until ctx
// ends; it reports whether the puller should keep going.
func (r *run) wait(ctx context.Context) bool {
	r.mu.Lock()
	ch := r.wake
	r.mu.Unlock()
	poll := r.s.opts.LeaseExpiry / 4
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	t := time.NewTimer(poll)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sleep pauses for d or until ctx ends, reporting whether to continue.
func (r *run) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// acquire hands backend its next lease: the lowest-id idle incomplete
// lease of its own home if any; otherwise the highest-id idle
// incomplete lease of another home, taken from the back of that home's
// queue while its own pullers work from the front, so a helper takes
// the same tail cells pass after pass and the next pass finds them in
// its cache; otherwise the stalest in-flight lease past expiry that
// the backend is not already holding — a steal. Returns the lease, the
// job indices still undone at acquisition, and the dispatch kind
// ("first" initial dispatch, "steal" expired-lease takeover,
// "redispatch" re-issue after the previous holder released without
// finishing) — the lease span carries it so trace analytics can
// attribute critical-path time to steal/re-dispatch stages. Lease is
// nil when nothing is available right now.
func (r *run) acquire(backend string) (*lease, []int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.doneCount == len(r.jobs) || r.err != nil {
		return nil, nil, ""
	}
	now := time.Now()
	var pick *lease
	for _, l := range r.leases {
		if l.remaining > 0 && l.holders == 0 {
			pick = l
			if l.home == backend {
				break
			}
		}
	}
	steal := false
	if pick == nil {
		for _, l := range r.leases {
			if l.remaining == 0 || l.holders == 0 || l.holders >= maxLeaseHolders {
				continue
			}
			if l.holderOf[backend] > 0 {
				continue
			}
			if now.Sub(l.touched) < r.s.opts.LeaseExpiry {
				continue
			}
			if pick == nil || l.touched.Before(pick.touched) {
				pick = l
			}
		}
		steal = pick != nil
	}
	if pick == nil {
		return nil, nil, ""
	}
	redispatch := pick.dispatched && !steal
	pick.holders++
	pick.holderOf[backend]++
	pick.touched = now
	pick.dispatched = true
	idxs := make([]int, 0, pick.remaining)
	for _, i := range pick.idxs {
		if !r.done[i] {
			idxs = append(idxs, i)
		}
	}
	r.s.leasesIssued.Add(1)
	if steal {
		r.s.steals.Add(1)
		// Charge the steal to the stalled holder(s) being covered for —
		// the thief is doing the fleet a favor, the victim ate the
		// latency budget. holderOf cannot include the thief (filtered
		// above), so every key is a victim.
		for victim, n := range pick.holderOf {
			if victim != backend && n > 0 {
				r.s.attr.get(victim).stolenFrom.Add(1)
			}
		}
	} else if redispatch {
		r.s.redispatches.Add(1)
	}
	kind := "first"
	switch {
	case steal:
		kind = "steal"
	case redispatch:
		kind = "redispatch"
	}
	return pick, idxs, kind
}

// deliver records one measured cell. The first delivery of an index
// wins; a duplicate (from a stolen lease's loser) reports false and is
// discarded. Delivery refreshes the lease's expiry clock — a streaming
// backend that keeps producing is never stolen from.
func (r *run) deliver(l *lease, idx int, m *harness.Measurement) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.touched = time.Now()
	if r.done[idx] {
		return false
	}
	r.done[idx] = true
	r.out[idx] = m
	r.doneCount++
	l.remaining--
	if r.doneCount == len(r.jobs) {
		// Complete: wake idle pullers so they exit, and cancel the run
		// context so in-flight duplicate streams abort instead of
		// finishing work nobody needs.
		r.notifyLocked()
		r.cancel()
	} else if l.remaining == 0 {
		r.notifyLocked()
	}
	return true
}

// release returns a holder's claim on a lease after its stream ended.
// A failed dispatch counts against the lease; past MaxLeaseFailures the
// run is poisoned (the fleet cannot measure these cells). An incomplete
// lease with no remaining holders goes back to idle and pullers are
// woken to claim it.
func (r *run) release(l *lease, backend string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.holders--
	l.holderOf[backend]--
	if l.holderOf[backend] <= 0 {
		delete(l.holderOf, backend)
	}
	if err != nil {
		l.failures++
		r.s.attr.get(backend).leaseFails.Add(1)
		if l.remaining > 0 && l.failures >= r.s.opts.MaxLeaseFailures && r.err == nil {
			r.err = fmt.Errorf("cluster: lease %d failed %d dispatches, giving up: %w", l.id, l.failures, err)
			r.cancel()
			r.notifyLocked()
			return
		}
	}
	if l.remaining > 0 && l.holders == 0 {
		r.notifyLocked()
	}
}

// fail poisons the run with its first permanent error.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.notifyLocked()
	r.mu.Unlock()
	r.cancel()
}

// MeasureBatch measures jobs across the fleet by work-stealing and
// returns them in job order, satisfying the harness.MeasureBatch
// contract: results are bit-identical to a local harness run (the
// determinism contract makes stolen and duplicated cells exact), the
// first permanent error cancels the batch, and ctx aborts promptly.
// workers <= 0 selects PullersPerBackend streams per backend; workers
// > 0 caps the fleet-wide stream count, distributed round-robin.
func (s *Scheduler) MeasureBatch(ctx context.Context, jobs []harness.Job, workers int) ([]*harness.Measurement, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := s.tracer.StartSpan(ctx, "scheduler.MeasureBatch",
		telemetry.Int("jobs", len(jobs)), telemetry.Int("workers", workers))
	defer span.End()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := newRun(s, jobs, cancel)

	pullers := make(map[string]int, len(s.backends))
	if workers > 0 {
		for i := 0; i < workers; i++ {
			pullers[s.backends[i%len(s.backends)]]++
		}
	} else {
		for _, be := range s.backends {
			pullers[be] = s.opts.PullersPerBackend
		}
	}

	var wg sync.WaitGroup
	for be, n := range pullers {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(be string) {
				defer wg.Done()
				s.pull(runCtx, r, be)
			}(be)
		}
	}
	wg.Wait()

	r.mu.Lock()
	err := r.err
	doneCount := r.doneCount
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// The parent context (not the run context — completion cancels that
	// one by design) decides whether an incomplete run was an abort.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if doneCount != len(jobs) {
		return nil, fmt.Errorf("cluster: scheduler finished with %d of %d cells measured", doneCount, len(jobs))
	}
	return r.out, nil
}

// pull is one backend puller: claim a lease, stream it, release,
// repeat. Transient failures back off exponentially per consecutive
// failure; an open breaker idles the puller through the cooldown.
func (s *Scheduler) pull(ctx context.Context, r *run, backend string) {
	c := s.clients[backend]
	br := s.breakers[backend]
	consecFails := 0
	for {
		if ctx.Err() != nil || r.finished() {
			return
		}
		if !br.Ready() {
			if !r.wait(ctx) {
				return
			}
			continue
		}
		l, idxs, kind := r.acquire(backend)
		if l == nil {
			if !r.wait(ctx) {
				return
			}
			continue
		}
		err := s.streamLease(ctx, c, r, l, idxs, kind)
		if err != nil && ctx.Err() != nil {
			// Run completion or abort canceled the stream mid-flight;
			// nothing to record against the backend or the lease.
			r.release(l, backend, nil)
			return
		}
		r.release(l, backend, err)
		if err == nil {
			br.Success()
			consecFails = 0
			continue
		}
		if permanent(err) {
			r.fail(err)
			return
		}
		br.Failure()
		s.dispatchFails.Add(1)
		if errors.Is(err, ErrStreamTruncated) {
			s.truncations.Add(1)
		}
		consecFails++
		s.logger.WarnContext(ctx, "lease dispatch failed",
			slog.String("backend", backend), slog.Int("lease", l.id),
			slog.Int("consecutive", consecFails), slog.Any("cause", err))
		// An exponential base capped at BackoffMax, with full jitter on
		// the upper half so retry waves never synchronize across pullers
		// while the exponential floor is preserved.
		d := s.opts.BackoffBase << (consecFails - 1)
		if d > s.opts.BackoffMax || d <= 0 {
			d = s.opts.BackoffMax
		}
		if !r.sleep(ctx, d/2+time.Duration(rand.Int63n(int64(d/2)+1))) {
			return
		}
	}
}

// streamLease streams one lease's undone cells from one backend,
// delivering each cell as its frame arrives. Completed cells survive a
// failure partway — only the remainder is re-dispatched. A cell whose
// echoed identity is not the job asked for at its index fails the
// stream as a backend error, like an out-of-range index, so a
// backend's mix-up never lands in another job's row.
func (s *Scheduler) streamLease(ctx context.Context, c *Client, r *run, l *lease, idxs []int, kind string) error {
	if len(idxs) == 0 {
		return nil
	}
	req := &service.MeasureRequest{
		Seed:   &s.seed,
		Detail: service.DetailFull,
		Lane:   service.LaneBulk,
		Cells:  make([]service.CellRequest, len(idxs)),
	}
	for i, idx := range idxs {
		req.Cells[i] = cellRequest(r.jobs[idx])
	}
	s.cellsReq.Add(int64(len(idxs)))
	ctx, span := s.tracer.StartSpan(ctx, "scheduler.lease",
		telemetry.String("backend", c.Base()), telemetry.String("kind", kind),
		telemetry.Int("lease", l.id), telemetry.Int("cells", len(idxs)))
	defer span.End()
	return c.MeasureStream(ctx, req, func(sc *service.StreamCell) error {
		idx := idxs[sc.Index]
		if !echoes(&sc.Result, r.jobs[idx]) {
			return &backendError{Backend: c.Base(),
				Msg: fmt.Sprintf("stream cell %d answers %s on %s %+v, asked for %s on %s",
					sc.Index, sc.Result.Benchmark, sc.Result.Processor, sc.Result.Config,
					r.jobs[idx].Bench.Name, r.jobs[idx].CP)}
		}
		m, err := s.resolver.MeasurementFromCell(&sc.Result)
		if err != nil {
			return err
		}
		if r.deliver(l, idx, m) {
			s.cellsDone.Add(1)
		} else {
			s.cellsDup.Add(1)
		}
		return nil
	})
}

// Reference builds the Section 2.6 normalization table from scheduled
// measurements — bit-identical to a local harness.Reference() at the
// same seed, because both feed BuildReference the same measurements.
// The accumulation is keyed by cell identity, so it is independent of
// which backend measured what and in what order results arrived.
func (s *Scheduler) Reference(ctx context.Context, workers int) (*harness.Reference, error) {
	refs, err := harness.ReferenceCells()
	if err != nil {
		return nil, err
	}
	jobs := harness.GridJobs(refs, nil)
	ms, err := s.MeasureBatch(ctx, jobs, workers)
	if err != nil {
		return nil, err
	}
	byCell := make(map[string]*harness.Measurement, len(ms))
	for i, m := range ms {
		byCell[jobs[i].Bench.Name+"|"+jobs[i].CP.String()] = m
	}
	return harness.BuildReference(func(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*harness.Measurement, error) {
		m, ok := byCell[b.Name+"|"+cp.String()]
		if !ok {
			return nil, fmt.Errorf("cluster: %s on %s missing from reference batch", b.Name, cp)
		}
		return m, nil
	})
}

// ProbeHealth hits every backend's /healthz once, concurrently, and
// feeds the breakers: failures accumulate toward the breaker threshold,
// a healthy answer closes the breaker and readmits a recovered
// backend's pullers.
func (s *Scheduler) ProbeHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for be, c := range s.clients {
		wg.Add(1)
		go func(be string, c *Client) {
			defer wg.Done()
			if err := c.Healthz(ctx); err != nil && ctx.Err() == nil {
				s.breakers[be].Failure()
			} else if err == nil {
				s.breakers[be].Success()
			}
		}(be, c)
	}
	wg.Wait()
}

// StartProber probes health on the given interval until ctx is done.
func (s *Scheduler) StartProber(ctx context.Context, interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.ProbeHealth(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// SchedulerStats is the scheduler-side counter snapshot.
type SchedulerStats struct {
	Backends          []BackendStats `json:"backends"`
	LeasesIssued      int64          `json:"leases_issued"`
	Steals            int64          `json:"steals"`
	Redispatches      int64          `json:"redispatches"`
	CellsMeasured     int64          `json:"cells_measured"`
	CellsRequested    int64          `json:"cells_requested"`
	CellsDiscarded    int64          `json:"cells_discarded"`
	StreamTruncations int64          `json:"stream_truncations"`
	DispatchFailures  int64          `json:"dispatch_failures"`
	BreakerOpens      int64          `json:"breaker_opens"`
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	st := SchedulerStats{
		LeasesIssued:      s.leasesIssued.Load(),
		Steals:            s.steals.Load(),
		Redispatches:      s.redispatches.Load(),
		CellsMeasured:     s.cellsDone.Load(),
		CellsRequested:    s.cellsReq.Load(),
		CellsDiscarded:    s.cellsDup.Load(),
		StreamTruncations: s.truncations.Load(),
		DispatchFailures:  s.dispatchFails.Load(),
	}
	for _, m := range s.backends {
		b := s.breakers[m]
		opens := b.Opens()
		lat := s.clients[m].lat.Summary()
		at := s.attr.get(m)
		st.Backends = append(st.Backends, BackendStats{
			URL:           m,
			State:         b.State(),
			Opens:         opens,
			Requests:      lat.Count,
			P50Ms:         float64(lat.P50) / 1e6,
			P90Ms:         float64(lat.P90) / 1e6,
			P99Ms:         float64(lat.P99) / 1e6,
			StolenFrom:    at.stolenFrom.Load(),
			LeaseFailures: at.leaseFails.Load(),
		})
		st.BreakerOpens += opens
	}
	return st
}
