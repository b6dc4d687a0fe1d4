package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Sizes of a run. Every workload sets up setupRepeats times and reports
// the median, measures repetitions until the window has passed and
// enough interactive latencies are in for a p99 with at least ten
// samples beyond it, and never runs past hardLimit.
const (
	setupRepeats       = 3
	minLatencySamples  = 1000
	minStudies         = 5
	hardLimit          = 150 * time.Second
	gridCells          = 45 * 61
	interactiveRate    = 200              // requests/s during every study; README.md, "Interactive rate"
	ingestWaitLimit    = 10 * time.Second // deployed-mix read-back
	studyFleetBackends = 2
)

// setupReady is the line a --setup-only process prints when its set-up
// is done; errSetupDone ends the workload there.
const setupReady = "studybench: set-up done"

var errSetupDone = errors.New("set-up done")

var workloads = map[string]func(*bench) error{
	"cold-study":   (*bench).coldStudy,
	"warm-study":   (*bench).warmStudy,
	"deployed-mix": (*bench).deployedMix,
}

// bench is one run: its inputs, the fleets it drives, and everything it
// records.
type bench struct {
	opts    options
	start   time.Time
	ctx     context.Context
	streams int    // lease streams per study pass: one per CPU
	workdir string // store directories and the span file
	tr      *tracer
	gen     *loadgen
	hc      *http.Client // read-back and observation requests
	out     csvPair
	rb      bytes.Buffer // read-back measurements.csv

	setups    []float64
	calib     []float64 // calibration times, ms
	nextStudy int64
	windowS   float64

	studies   []studyRec
	readbacks []readbackRec
	vals      map[string][]float64
	studyErrs int // studies that failed before their CSVs could be checked
}

type studyRec struct {
	id     int64
	traced bool
	s      float64
	digest digest
}

type readbackRec struct {
	s       float64
	meas    [32]byte
	agg     *[32]byte // deployed-mix exports both files
	invalid bool      // failed before its bytes could be checked
}

func run(opts options, start time.Time) (*result, error) {
	b := &bench{
		opts:    opts,
		start:   start,
		ctx:     context.Background(),
		streams: runtime.GOMAXPROCS(0),
		gen:     newLoadgen(opts.seed),
		hc:      &http.Client{Timeout: time.Minute},
		vals:    map[string][]float64{},
	}
	b.workdir = os.Getenv("STUDYBENCH_WORKDIR")
	if b.workdir == "" {
		b.workdir = filepath.Join(".bench_build", "studybench-work")
	}
	b.workdir = filepath.Join(b.workdir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.workdir)
	if opts.trace {
		b.tr = newTracer()
	}
	err := workloads[opts.workload](b)
	if errors.Is(err, errSetupDone) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	b.gen.client.CloseIdleConnections()
	b.hc.CloseIdleConnections()
	return b.finish()
}

// setup times the workload's set-up phase setupRepeats times, each from
// the start of a fresh process, so every sample pays process start,
// package initialisation and the first use of every process-wide cache.
// The first is this process's own set-up, whose state the timed window
// then uses; each further one runs in a child process of this binary
// (--setup-only), which runs the same phase, reports it done and exits.
func (b *bench) setup(phase func() error) error {
	if err := phase(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if b.studyErrs > 0 {
		return fmt.Errorf("set-up: %d studies failed", b.studyErrs)
	}
	if b.opts.setupOnly {
		fmt.Println(setupReady)
		return errSetupDone
	}
	b.setups = append(b.setups, time.Since(b.start).Seconds())
	for i := 1; i < setupRepeats; i++ {
		if err := b.settle(); err != nil {
			return err
		}
		d, err := b.childSetup()
		if err != nil {
			return fmt.Errorf("set-up in a child process: %w", err)
		}
		b.setups = append(b.setups, d.Seconds())
	}
	// Set-up traffic is not measured.
	b.gen.reset()
	b.vals, b.studies, b.readbacks = map[string][]float64{}, nil, nil
	return nil
}

// childSetup runs one set-up in a child process and times it from just
// before the child starts until it reports the set-up done.
func (b *bench) childSetup() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", b.opts.workload, "--seed", strconv.FormatInt(b.opts.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || strings.TrimSpace(line) != setupReady {
		return 0, fmt.Errorf("child printed %q, want %q", line, setupReady)
	}
	return d, nil
}

// measure runs repetitions until the window is over. In a traced run
// every other repetition is traced, so the tracing overhead is measured
// against untraced repetitions of the same run.
func (b *bench) measure(rep func(traced bool) error) error {
	t0 := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(t0).Seconds() >= b.opts.seconds &&
			b.gen.answered() >= minLatencySamples && len(b.studies) >= minStudies
		if enough || time.Since(b.start) > hardLimit {
			break
		}
		traced := b.tr != nil && i%2 == 1
		if b.tr != nil {
			b.tr.on.Store(traced)
		}
		if err := b.settle(); err != nil {
			return err
		}
		if err := rep(traced); err != nil {
			return err
		}
	}
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	b.windowS = time.Since(t0).Seconds()
	return nil
}

func (b *bench) add(name string, v float64) { b.vals[name] = append(b.vals[name], v) }

// settle runs before every child set-up and every repetition: it
// collects garbage, so every study starts from the same heap state, and
// times the host calibration.
func (b *bench) settle() error {
	runtime.GC()
	d, err := calibrate()
	if err != nil {
		return err
	}
	b.calib = append(b.calib, float64(d)/1e6)
	return nil
}

// counters are the process and program counters a study changes.
type counters struct {
	sched        cluster.SchedulerStats
	hits, misses int64
	sweeps       int64
	cpu          time.Duration
	rt           [3]uint64 // GC cycles, allocated bytes, allocated objects
}

var runtimeSamples = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readCounters(f *fleet) counters {
	var c counters
	c.sched = f.sched.Stats()
	c.hits, c.misses = f.cacheTotals()
	for _, be := range f.backends {
		if be.mon != nil {
			c.sweeps += be.mon.Sweeps()
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			c.rt[i] = s[i].Value.Uint64()
		}
	}
	return c
}

// study runs one timed study on f, records its wall time, digest and
// per-layer changes, and returns the reference, nil if it failed.
func (b *bench) study(f *fleet, traced bool) *harness.Reference {
	b.nextStudy++
	id := b.nextStudy
	var sampler *queueSampler
	if traced {
		sampler = startQueueSampler(f)
	}
	before := readCounters(f)
	endSpan := b.tr.beginStudy(id)
	t0 := time.Now()
	ref, err := runStudy(b.ctx, f.sched, b.streams, &b.out, b.tr)
	d := time.Since(t0)
	endSpan()
	after := readCounters(f)
	if sampler != nil {
		b.add("service.queue_depth_max", float64(sampler.stop()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench: study failed:", err)
		b.studyErrs++
		return nil
	}
	b.studies = append(b.studies, studyRec{id: id, traced: traced, s: d.Seconds(), digest: b.out.digest()})

	ds := func(x, y int64) float64 { return float64(x - y) }
	req := ds(after.sched.CellsRequested, before.sched.CellsRequested)
	b.add("cluster.leases", ds(after.sched.LeasesIssued, before.sched.LeasesIssued))
	b.add("cluster.cells_requested", req)
	b.add("cluster.cells_discarded", ds(after.sched.CellsDiscarded, before.sched.CellsDiscarded))
	b.add("cluster.steals", ds(after.sched.Steals, before.sched.Steals))
	b.add("cluster.redispatches", ds(after.sched.Redispatches, before.sched.Redispatches))
	b.add("cluster.useful_cell_ratio", gridCells/req)
	misses := ds(after.misses, before.misses)
	b.add("service.cache_hits", ds(after.hits, before.hits))
	b.add("service.cache_misses", misses)
	fillRatio := 1.0 // no fills, none wasted
	if misses > 0 {
		fillRatio = gridCells / misses
	}
	b.add("service.useful_fill_ratio", fillRatio)
	b.add("monitor.sweeps_per_study", ds(after.sweeps, before.sweeps))
	if !traced {
		b.add("runtime.cpu_s_per_study", (after.cpu - before.cpu).Seconds())
		b.add("runtime.gc_cycles_per_study", float64(after.rt[0]-before.rt[0]))
		b.add("runtime.alloc_mb_per_study", float64(after.rt[1]-before.rt[1])/(1<<20))
		b.add("runtime.mallocs_per_study", float64(after.rt[2]-before.rt[2]))
	}
	if traced {
		var bytes int64
		for _, s := range b.tr.studySpans(id) {
			if s.Name == spanLease {
				bytes += s.Bytes
			}
		}
		b.add("cluster.wire_bytes_per_cell", float64(bytes)/req)
	}
	if b.opts.workload == "warm-study" && misses != 0 {
		fmt.Fprintf(os.Stderr, "studybench: warm study %d missed the cache %v times\n", id, misses)
		b.studyErrs++
		b.studies = b.studies[:len(b.studies)-1]
	}
	return ref
}

// heap records the heap still held after a forced GC.
func (b *bench) heap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.add("heap_mb", float64(ms.HeapAlloc)/(1<<20))
}

// readbackFleet re-reads measurements.csv through the scheduler.
func (b *bench) readbackFleet(f *fleet, ref *harness.Reference) {
	t0 := time.Now()
	err := readbackPass(b.ctx, f.sched, ref, b.streams, &b.rb)
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench: read-back failed:", err)
		b.readbacks = append(b.readbacks, readbackRec{invalid: true})
		return
	}
	b.readbacks = append(b.readbacks, readbackRec{s: d.Seconds(), meas: sha256.Sum256(b.rb.Bytes())})
}

// observe takes the traced repetition's outside readings of the
// backend's observation endpoints.
func (b *bench) observe(be *backend) error {
	text, err := b.get(be.url + "/metricsz")
	if err != nil {
		return err
	}
	b.add("telemetry.metricsz_bytes", float64(len(text)))
	t0 := time.Now()
	if _, err := telemetry.ParsePrometheus(string(text)); err != nil {
		return fmt.Errorf("parse /metricsz: %w", err)
	}
	b.add("telemetry.parse_ms", msSince(t0))
	raw, err := b.get(be.url + "/v1/traces?format=spans")
	if err != nil {
		return err
	}
	var spans []telemetry.SpanData
	if err := json.Unmarshal(raw, &spans); err != nil {
		return fmt.Errorf("decode /v1/traces: %w", err)
	}
	b.add("telemetry.spans_retained", float64(len(spans)))
	return nil
}

func (b *bench) get(url string) ([]byte, error) {
	resp, err := b.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func (b *bench) backendConfig(storeDir string) backendConfig {
	cfg := backendConfig{storeDir: storeDir}
	if b.tr != nil {
		cfg.wrap = b.tr.wrapHandler
	}
	return cfg
}

func (b *bench) startFleet(n int, storeDir string) (*fleet, error) {
	var rt func(http.RoundTripper) http.RoundTripper
	if b.tr != nil {
		rt = b.tr.wrapTransport
	}
	return startFleet(n, b.opts.seed, b.backendConfig(storeDir), rt)
}

// coldStudy: every repetition starts two fresh backends in the daemon's
// default configuration and runs the study on them.
func (b *bench) coldStudy() error {
	err := b.setup(func() error {
		f, err := b.startFleet(studyFleetBackends, "")
		if err != nil {
			return err
		}
		if _, err := runStudy(b.ctx, f.sched, b.streams, &b.out, nil); err != nil {
			f.close()
			return err
		}
		return f.close()
	})
	if err != nil {
		return err
	}
	return b.measure(func(traced bool) error {
		f, err := b.startFleet(studyFleetBackends, "")
		if err != nil {
			return err
		}
		stop := b.gen.start(b.ctx, f.backends[0].url)
		ref := b.study(f, traced)
		stop()
		b.heap()
		if ref != nil {
			b.readbackFleet(f, ref)
		}
		if traced {
			if err := b.observe(f.backends[0]); err != nil {
				f.close()
				return err
			}
		}
		return f.close()
	})
}

// warmStudy: the study repeated against two backends whose caches
// already hold every cell of it.
func (b *bench) warmStudy() error {
	var f *fleet
	err := b.setup(func() (err error) {
		if f, err = b.startFleet(studyFleetBackends, ""); err != nil {
			return err
		}
		// Each backend must hold every cell. Studies through the fleet's
		// scheduler would get there only by chance, since a lease may
		// keep landing on the same backend, so each backend runs the
		// study once through a scheduler of its own.
		for _, be := range f.backends {
			err := f.studyOn(b.ctx, be, b.opts.seed, b.streams, &b.out)
			if err == nil && be.srv.Stats().Cache.Entries < gridCells {
				err = fmt.Errorf("backend holds %d cells after a study, want %d", be.srv.Stats().Cache.Entries, gridCells)
			}
			if err != nil {
				return err
			}
		}
		// Every interactive cell is cached too, in one batch per backend,
		// so warm interactive requests are hits.
		for _, be := range f.backends {
			if err := f.fillOn(b.ctx, be, b.gen.seed, b.gen.cells, b.streams); err != nil {
				return err
			}
		}
		return nil
	})
	if f != nil {
		defer f.close()
	}
	if err != nil {
		return err
	}
	i := 0
	return b.measure(func(traced bool) error {
		stop := b.gen.start(b.ctx, f.backends[i%len(f.backends)].url)
		i++
		ref := b.study(f, traced)
		stop()
		b.heap()
		if ref != nil {
			b.readbackFleet(f, ref)
		}
		if traced {
			return b.observe(f.backends[0])
		}
		return nil
	})
}

// deployedMix: one backend in the deployed configuration — a fresh
// store, SLO tracking, tail sampling and a self-monitor — runs the study
// while the open-loop generator sends interactive cache fills, then the
// study is read back from the store.
func (b *bench) deployedMix() error {
	rep := 0
	one := func(traced bool) error {
		rep++
		dir := filepath.Join(b.workdir, fmt.Sprintf("store-%d", rep))
		defer os.RemoveAll(dir)
		f, err := b.startFleet(1, dir)
		if err != nil {
			return err
		}
		be := f.backends[0]
		runtime.GC()
		answered := b.gen.answered()
		stop := b.gen.start(b.ctx, be.url)
		before := f.sched.Stats()
		ref := b.study(f, traced)
		stop()
		leases := f.sched.Stats().LeasesIssued - before.LeasesIssued
		interactive := int64(b.gen.answered() - answered)
		b.heap()
		if ref != nil {
			b.readbackStore(be, leases+interactive)
		}
		if traced {
			if err := b.observeDeployed(be); err != nil {
				f.close()
				return err
			}
		}
		// A batch the store dropped or failed to write fails the read-back.
		st := be.srv.Stats().Store
		b.add("store.ingest_dropped", float64(st.Dropped))
		b.add("store.write_errors", float64(st.WriteErrors))
		if n := len(b.readbacks); n > 0 && (st.Dropped != 0 || st.WriteErrors != 0) {
			b.readbacks[n-1].invalid = true
		}
		if err := f.close(); err != nil {
			return err
		}
		if traced {
			return b.timeStoreOpen(dir)
		}
		return nil
	}
	// Set-up is a warm-up repetition whose records are discarded.
	if err := b.setup(func() error { return one(false) }); err != nil {
		return err
	}
	return b.measure(one)
}

// readbackStore waits until the store holds every batch of the
// repetition that will ever arrive, then times reading the study back:
// both CSV exports (checked after the window), the aggregates and the
// trend replay.
func (b *bench) readbackStore(be *backend, commits int64) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "studybench: read-back failed:", err)
		b.readbacks = append(b.readbacks, readbackRec{invalid: true})
	}
	lost, err := b.awaitIngest(be, commits)
	if err != nil {
		fail(err)
		return
	}
	b.add("store.batches_lost", float64(lost))
	seed := strconv.FormatInt(b.opts.seed, 10)
	base := be.url + "/v1/studies"
	t0 := time.Now()
	meas, err := b.get(base + "/export?table=measurements&seed=" + seed)
	if err != nil {
		fail(err)
		return
	}
	agg, err := b.get(base + "/export?table=aggregates&seed=" + seed)
	if err != nil {
		fail(err)
		return
	}
	for _, q := range []string{"/aggregates?seed=", "/trend?seed="} {
		body, err := b.get(base + q + seed)
		if err == nil && !json.Valid(body) {
			err = fmt.Errorf("GET %s: invalid JSON", q)
		}
		if err != nil {
			fail(err)
			return
		}
	}
	d := time.Since(t0)
	aggSum := sha256.Sum256(agg)
	b.readbacks = append(b.readbacks, readbackRec{s: d.Seconds(), meas: sha256.Sum256(meas), agg: &aggSum})

	var rows, bytes int64
	for _, m := range be.store.Studies() {
		if m.Seed == b.opts.seed {
			rows += int64(m.Rows)
			bytes += m.Bytes
		}
	}
	b.add("store.rows_per_study", float64(rows))
	b.add("store.bytes_per_study", float64(bytes))
	b.add("store.rows_per_cell", float64(rows)/gridCells)
}

// awaitIngest waits until the store holds every batch of the repetition
// that will ever arrive, and returns how many of the commits expected
// (one per lease and per interactive request) never did. Every measure
// request that finished commits its batch, but the scheduler cancels a
// pass's last lease stream once its last cell is in, and a backend that
// sees the cancel before writing the stream's terminal line commits
// nothing, so how many batches will arrive is not known in advance.
// Instead: once no request is in progress on the backend, every batch
// that will commit is in the ingest queue. A marker batch at a seed of
// its own then goes in behind them, and the store's single writer
// appends in queue order, so once the marker's segment is in, so is
// every batch before it.
func (b *bench) awaitIngest(be *backend, commits int64) (lost int64, err error) {
	deadline := time.Now().Add(ingestWaitLimit)
	wait := func(done func() bool, what string) error {
		for !done() {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s after %v", what, ingestWaitLimit)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	if err := wait(func() bool { return be.conns.active() == 0 }, "backend still serving"); err != nil {
		return 0, err
	}
	marker := markerSeed(b.opts.seed)
	body, err := measureBody(marker, b.gen.cells[0])
	if err != nil {
		return 0, err
	}
	if _, err := post(b.ctx, b.hc, be.url, body); err != nil {
		return 0, fmt.Errorf("marker batch: %w", err)
	}
	markerIn := func() bool {
		segs := be.store.Studies()
		return len(segs) > 0 && segs[len(segs)-1].Seed == marker
	}
	if err := wait(markerIn, "marker batch not in the store"); err != nil {
		return 0, err
	}
	st := be.srv.Stats().Store
	return commits + 1 - (st.Recorded + st.Dropped + st.WriteErrors), nil
}

// observeDeployed times the observation stack from outside after a
// traced deployed-mix study.
func (b *bench) observeDeployed(be *backend) error {
	t0 := time.Now()
	be.mon.Sweep(b.ctx)
	b.add("monitor.sweep_ms", msSince(t0))
	t0 = time.Now()
	be.mon.HarvestTraces(b.ctx)
	b.add("monitor.harvest_ms", msSince(t0))
	st := be.mon.TraceAnalytics().Summary(5).Stats
	b.add("traceanalytics.spans_seen", float64(st.SpansSeen))
	b.add("traceanalytics.traces_assembled", float64(st.Traces))
	return b.observe(be)
}

// timeStoreOpen times store.Open on the repetition's closed store
// directory, and Collect of the study seed on a read-only handle.
func (b *bench) timeStoreOpen(dir string) error {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	b.add("store.open_ms", msSince(t0))
	if err := st.Close(); err != nil {
		return err
	}
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		return err
	}
	defer ro.Close()
	seed := b.opts.seed
	t0 = time.Now()
	d, err := ro.Collect(store.Query{Seed: &seed})
	if err != nil {
		return err
	}
	b.add("store.collect_ms", msSince(t0))
	if d.Cells() != gridCells {
		return fmt.Errorf("store holds %d cells of the study, want %d", d.Cells(), gridCells)
	}
	return nil
}

// queueSampler polls the backends' worker-pool queue depth during a
// traced study.
type queueSampler struct {
	stopc chan struct{}
	done  chan int
}

func startQueueSampler(f *fleet) *queueSampler {
	q := &queueSampler{stopc: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		maxDepth := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			for _, be := range f.backends {
				maxDepth = max(maxDepth, be.srv.Stats().Queue.Depth)
			}
			select {
			case <-t.C:
			case <-q.stopc:
				q.done <- maxDepth
				return
			}
		}
	}()
	return q
}

func (q *queueSampler) stop() int {
	close(q.stopc)
	return <-q.done
}

// quantile is the linearly interpolated q-quantile of vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
