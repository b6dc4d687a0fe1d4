package cluster

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaoshttp"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
)

// chaosBackend is a powerperfd behind a fault-injecting proxy; the
// scheduler talks only to the proxy.
func chaosBackend(t *testing.T, sopts service.Options, copts chaoshttp.Options) (*chaoshttp.Proxy, *httptest.Server) {
	t.Helper()
	srv := service.NewServer(sopts)
	backend := httptest.NewServer(srv.Handler())
	t.Cleanup(backend.Close)
	p := chaoshttp.New(backend.URL, copts)
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

// TestSchedulerLatencyIsItsOwn: each scheduler's clients own their
// latency histograms, so after scheduler A runs a batch against a
// backend it counts one exchange per lease it issued, and a scheduler B
// built for the same backend that never ran counts none.
func TestSchedulerLatencyIsItsOwn(t *testing.T) {
	ts := newBackend(t, service.Options{Seed: 42})
	a, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MeasureBatch(context.Background(), stockJobs(t, 1)[:2], 0); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.LeasesIssued == 0 || st.Backends[0].Requests != st.LeasesIssued {
		t.Errorf("scheduler A: %d requests for %d leases, want one per lease", st.Backends[0].Requests, st.LeasesIssued)
	}
	if got := b.Stats().Backends[0].Requests; got != 0 {
		t.Errorf("scheduler B never ran but counts %d requests to the backend", got)
	}
}

// TestSchedulerMatchesLocalHarness is the scheduler's contract test: a
// single-backend work-stealing run returns measurements deeply equal
// to a local harness at the same seed.
func TestSchedulerMatchesLocalHarness(t *testing.T) {
	srv := service.NewServer(service.Options{Seed: 42})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	s, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42), LeaseCells: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 2)
	remote, err := s.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}

	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	local, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if !reflect.DeepEqual(remote[i], local[i]) {
			t.Fatalf("job %d (%s on %s): scheduled measurement differs from local",
				i, jobs[i].Bench.Name, jobs[i].CP)
		}
	}
	st := s.Stats()
	if st.CellsMeasured != int64(len(jobs)) {
		t.Fatalf("cells_measured = %d, want %d", st.CellsMeasured, len(jobs))
	}
	if st.LeasesIssued < int64(len(jobs)/5) {
		t.Fatalf("leases_issued = %d, want >= %d", st.LeasesIssued, len(jobs)/5)
	}
}

// TestSchedulerStudyByteIdenticalUnderChaos is the acceptance test:
// three backends — one killed mid-study, one a 10x straggler (every
// response chunk delayed by its chaos proxy), one randomly truncating
// streams — and the work-stealing study still produces CSVs byte-
// identical to the committed seed-42 dataset. Completed cells are
// never re-run: a re-dispatched or stolen lease requests only the
// cells not yet delivered.
func TestSchedulerStudyByteIdenticalUnderChaos(t *testing.T) {
	var victim *chaoshttp.Proxy
	var victimFront *httptest.Server
	var victimCells atomic.Int64
	killAt := int64(150)
	hooks := &service.Hooks{BeforeMeasure: func(int64, string, string) error {
		if victimCells.Add(1) == killAt {
			victim.Kill()
			victimFront.CloseClientConnections()
		}
		return nil
	}}

	p0, f0 := chaosBackend(t, service.Options{Seed: 42, Hooks: hooks}, chaoshttp.Options{Seed: 1})
	victim, victimFront = p0, f0
	// The straggler: compute runs at full speed but every response chunk
	// crawls out — the shape of a backend with a saturated uplink.
	_, f1 := chaosBackend(t, service.Options{Seed: 42}, chaoshttp.Options{Seed: 2, ChunkDelay: 2 * time.Millisecond})
	// The flaky one: ~5% of responses are severed mid-chunk.
	p2, f2 := chaosBackend(t, service.Options{Seed: 42}, chaoshttp.Options{Seed: 3, TruncateProb: 0.05})

	s, err := NewScheduler([]string{f0.URL, f1.URL, f2.URL}, SchedulerOptions{
		Seed:             seedPtr(42),
		LeaseCells:       32,
		LeaseExpiry:      150 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxLeaseFailures: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ref, err := s.Reference(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf, abuf bytes.Buffer
	if err := experiments.StreamMeasurementsCSVFrom(ctx, s, ref, nil, &mbuf, 0); err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamAggregatesCSVFrom(ctx, s, ref, nil, &abuf, 0); err != nil {
		t.Fatal(err)
	}

	if !victim.Dead() {
		t.Fatalf("victim backend was never killed (computed %d cells, kill at %d)", victimCells.Load(), killAt)
	}

	for file, got := range map[string][]byte{
		"measurements.csv": mbuf.Bytes(),
		"aggregates.csv":   abuf.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: scheduled bytes differ from committed dataset/%s (%d vs %d bytes)",
				file, file, len(got), len(want))
		}
	}

	st := s.Stats()
	if st.DispatchFailures == 0 {
		t.Errorf("expected dispatch failures after the mid-study kill, got 0; stats %+v", st)
	}
	if st.Redispatches+st.Steals == 0 {
		t.Errorf("expected the killed backend's leases to be re-dispatched or stolen; stats %+v", st)
	}
	for _, be := range st.Backends {
		if be.URL == f0.URL && be.Opens == 0 {
			t.Errorf("killed backend's breaker never opened; stats %+v", st)
		}
	}
	if pst := p2.Stats(); pst.Truncated == 0 {
		t.Logf("note: the truncating proxy never fired (%+v)", pst)
	} else if st.StreamTruncations == 0 {
		t.Errorf("proxy truncated %d streams but the scheduler counted 0", p2.Stats().Truncated)
	}
	// No wholesale re-running: duplicated work is bounded by the
	// re-dispatched remainders and concurrent steals, nowhere near a
	// second pass over the grid.
	if st.CellsRequested >= 2*st.CellsMeasured {
		t.Errorf("cells_requested = %d vs %d measured: completed cells are being re-run",
			st.CellsRequested, st.CellsMeasured)
	}
}

// TestSchedulerStudyCSVProperty is the generative determinism suite:
// across randomized backend counts, lease sizes, puller counts, and
// seeded chaos schedules (drops, truncations, chunk delays, mid-run
// kills), the scheduler's CSVs must be md5-identical to a local serial
// run at the same seed. The scenario battery is itself seeded, so a
// failure replays exactly.
func TestSchedulerStudyCSVProperty(t *testing.T) {
	scenarios := 50
	if testing.Short() {
		scenarios = 12
	}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	seeds := []int64{0, 1, 2, 42}

	// One real backend fleet serves every scenario: the measure seed
	// travels in each request, and the shared cache keeps repeated
	// scenarios cheap, exactly as a long-lived fleet would.
	var backendURLs []string
	for i := 0; i < 4; i++ {
		srv := service.NewServer(service.Options{Seed: 42})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backendURLs = append(backendURLs, ts.URL)
	}

	type key struct {
		seed int64
		cfgs int
	}
	localM := map[key]string{}
	localA := map[key]string{}
	refs := map[int64]*harness.Reference{}
	local := func(seed int64, cfgs int) (string, string, *harness.Reference) {
		k := key{seed, cfgs}
		if _, ok := localM[k]; !ok {
			h, err := harness.New(seed)
			if err != nil {
				t.Fatal(err)
			}
			if refs[seed] == nil {
				ref, err := h.Reference()
				if err != nil {
					t.Fatal(err)
				}
				refs[seed] = ref
			}
			cps := proc.StockConfigs()[:cfgs]
			var mbuf, abuf bytes.Buffer
			ctx := context.Background()
			if err := experiments.StreamMeasurementsCSVFrom(ctx, h, refs[seed], cps, &mbuf, 0); err != nil {
				t.Fatal(err)
			}
			if err := experiments.StreamAggregatesCSVFrom(ctx, h, refs[seed], cps, &abuf, 0); err != nil {
				t.Fatal(err)
			}
			localM[k] = mbuf.String()
			localA[k] = abuf.String()
		}
		return localM[k], localA[k], refs[seed]
	}

	for i := 0; i < scenarios; i++ {
		seed := seeds[rng.Intn(len(seeds))]
		cfgs := 1 + rng.Intn(2)
		nBackends := 1 + rng.Intn(len(backendURLs))
		leaseCells := 1 + rng.Intn(9)
		pullers := 1 + rng.Intn(3)

		// Per-backend chaos, freshly seeded per scenario. A kill is only
		// scheduled when survivors remain.
		var urls []string
		var proxies []*chaoshttp.Proxy
		var fronts []*httptest.Server
		killIdx := -1
		if nBackends > 1 && rng.Intn(4) == 0 {
			killIdx = rng.Intn(nBackends)
		}
		for b := 0; b < nBackends; b++ {
			copts := chaoshttp.Options{
				Seed:         rng.Int63(),
				DropProb:     rng.Float64() * 0.15,
				TruncateProb: rng.Float64() * 0.25,
				ChunkDelay:   time.Duration(rng.Intn(2)) * time.Millisecond,
			}
			if b == killIdx {
				copts.KillAfter = int64(1 + rng.Intn(8))
			}
			p := chaoshttp.New(backendURLs[b], copts)
			front := httptest.NewServer(p)
			proxies = append(proxies, p)
			fronts = append(fronts, front)
			urls = append(urls, front.URL)
		}

		name := fmt.Sprintf("scenario %d: seed=%d cfgs=%d backends=%d lease=%d pullers=%d kill=%d",
			i, seed, cfgs, nBackends, leaseCells, pullers, killIdx)
		func() {
			defer func() {
				for _, f := range fronts {
					f.Close()
				}
			}()
			s, err := NewScheduler(urls, SchedulerOptions{
				Seed:              &seed,
				LeaseCells:        leaseCells,
				LeaseExpiry:       50 * time.Millisecond,
				PullersPerBackend: pullers,
				BreakerThreshold:  3,
				BreakerCooldown:   60 * time.Millisecond,
				BackoffBase:       time.Millisecond,
				BackoffMax:        15 * time.Millisecond,
				MaxLeaseFailures:  1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantM, wantA, ref := local(seed, cfgs)
			cps := proc.StockConfigs()[:cfgs]
			var mbuf, abuf bytes.Buffer
			ctx := context.Background()
			if err := experiments.StreamMeasurementsCSVFrom(ctx, s, ref, cps, &mbuf, 0); err != nil {
				t.Fatalf("%s: measurements: %v", name, err)
			}
			if err := experiments.StreamAggregatesCSVFrom(ctx, s, ref, cps, &abuf, 0); err != nil {
				t.Fatalf("%s: aggregates: %v", name, err)
			}
			if md5.Sum(mbuf.Bytes()) != md5.Sum([]byte(wantM)) {
				t.Errorf("%s: measurements.csv md5 differs from local serial run", name)
			}
			if md5.Sum(abuf.Bytes()) != md5.Sum([]byte(wantA)) {
				t.Errorf("%s: aggregates.csv md5 differs from local serial run", name)
			}
			// A kill only fires if the victim saw enough requests; work
			// stealing legitimately lets fast peers absorb everything.
			if killIdx >= 0 && !proxies[killIdx].Dead() {
				t.Logf("%s: victim saw %d requests, below its kill threshold", name, proxies[killIdx].Stats().Requests)
			}
		}()
		if t.Failed() {
			return
		}
	}
}

// TestSchedulerLeasePlanHomes: every lease holds cells of one home, that
// home is the rendezvous owner of each cell's routeKey, and each home's
// cells are sliced in job order, with at most one partial lease per
// home. Lease ids follow the leases' first jobs.
func TestSchedulerLeasePlanHomes(t *testing.T) {
	members := testMembers(3)
	s, err := NewScheduler(members, SchedulerOptions{Seed: seedPtr(7), LeaseCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 8)
	router := NewRouter(members)
	r := newRun(s, jobs, func() {})

	seen := make([]bool, len(jobs))
	partial := map[string]int{}
	last := map[string]int{}
	prevFirst := -1
	for id, l := range r.leases {
		if l.id != id {
			t.Fatalf("lease at %d has id %d", id, l.id)
		}
		if l.idxs[0] <= prevFirst {
			t.Fatalf("lease %d starts at job %d, not after lease %d's %d", id, l.idxs[0], id-1, prevFirst)
		}
		prevFirst = l.idxs[0]
		if len(l.idxs) < 16 {
			partial[l.home]++
		}
		for _, i := range l.idxs {
			if home := router.Route(harness.AppendKey(nil, 7, jobs[i].Cell())); home != l.home {
				t.Fatalf("lease %d (home %s) holds job %d, whose home is %s", id, l.home, i, home)
			}
			if seen[i] {
				t.Fatalf("job %d is in two leases", i)
			}
			seen[i] = true
			if prev, ok := last[l.home]; ok && i <= prev {
				t.Fatalf("home %s's jobs out of order: %d after %d", l.home, i, prev)
			}
			last[l.home] = i
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("job %d is in no lease", i)
		}
	}
	if len(last) != len(members) {
		t.Fatalf("%d of %d backends are home to a cell", len(last), len(members))
	}
	for home, n := range partial {
		if n > 1 {
			t.Fatalf("home %s has %d partial leases, want at most 1", home, n)
		}
	}
}

// TestSchedulerOneBackendPlanIsInOrder: with one backend every cell is
// home there, and the plan is the in-order slicing of the job list.
func TestSchedulerOneBackendPlanIsInOrder(t *testing.T) {
	s, err := NewScheduler(testMembers(1), SchedulerOptions{LeaseCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 3)
	r := newRun(s, jobs, func() {})
	if want := (len(jobs) + 15) / 16; len(r.leases) != want {
		t.Fatalf("%d leases, want %d", len(r.leases), want)
	}
	for id, l := range r.leases {
		lo := id * 16
		hi := min(lo+16, len(jobs))
		if len(l.idxs) != hi-lo || l.idxs[0] != lo || l.idxs[len(l.idxs)-1] != hi-1 || l.remaining != hi-lo {
			t.Fatalf("lease %d covers %v, want jobs [%d, %d)", id, l.idxs, lo, hi)
		}
	}
}

// TestSchedulerAcquirePrefersHome: a puller takes the lowest-id idle
// lease of its own home first, then the highest-id idle lease of
// another home, and steals an expired lease only when nothing is idle.
func TestSchedulerAcquirePrefersHome(t *testing.T) {
	members := testMembers(2)
	a, b := members[0], members[1]
	s, err := NewScheduler(members, SchedulerOptions{LeaseCells: 8, LeaseExpiry: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(s, stockJobs(t, 2), func() {})
	homeOf := func(home string) []*lease {
		var ls []*lease
		for _, l := range r.leases {
			if l.home == home {
				ls = append(ls, l)
			}
		}
		return ls
	}
	ownA, ownB := homeOf(a), homeOf(b)
	if len(ownA) < 2 || len(ownB) < 2 {
		t.Fatalf("homes hold %d and %d leases, want at least 2 each", len(ownA), len(ownB))
	}

	// A drains its own home front to back.
	for _, want := range ownA {
		l, idxs, kind := r.acquire(a)
		if l != want || kind != "first" || len(idxs) != len(want.idxs) {
			t.Fatalf("acquire(A) = lease %v (%s), want own lease %d first", l, kind, want.id)
		}
	}
	// With its home drained, A helps from the back of B's queue while B
	// works from the front.
	tail := ownB[len(ownB)-1]
	if l, _, kind := r.acquire(a); l != tail || kind != "first" {
		t.Fatalf("acquire(A) after own home = lease %v (%s), want B's last lease %d", l, kind, tail.id)
	}
	for _, l := range ownB[:len(ownB)-1] {
		if got, _, _ := r.acquire(b); got != l {
			t.Fatalf("acquire(B) = lease %v, want its lease %d", got, l.id)
		}
	}

	// Nothing idle and nothing expired: no lease.
	if l, _, _ := r.acquire(a); l != nil {
		t.Fatalf("acquire(A) with every lease held = lease %d, want none", l.id)
	}
	// A released lease goes back to idle and is re-dispatched — to
	// anyone, since only B's other leases are held.
	r.release(ownA[0], a, nil)
	if l, _, kind := r.acquire(b); l != ownA[0] || kind != "redispatch" {
		t.Fatalf("acquire(B) after A's release = lease %v (%s), want redispatch of %d", l, kind, ownA[0].id)
	}
	// An expired lease held only by B is stolen by A, stalest first.
	r.mu.Lock()
	ownB[0].touched = time.Now().Add(-2 * time.Minute)
	ownB[1].touched = time.Now().Add(-3 * time.Minute)
	r.mu.Unlock()
	if l, _, kind := r.acquire(a); l != ownB[1] || kind != "steal" {
		t.Fatalf("acquire(A) with B's leases expired = lease %v (%s), want steal of %d", l, kind, ownB[1].id)
	}
}

// TestSchedulerAffinityKeepsCachesWarm runs the same grid twice through
// one scheduler over two backends. The second pass asks each backend
// mostly for cells its own cache filled in the first, so it fills under
// a quarter of the cells again (placement by chance refills about
// half), and both passes return measurements identical to a local
// harness.
//
// The property needs backends that run at one speed: a backend that
// falls behind hands the other a different tail of its leases in each
// pass, and the helper refills whatever it did not compute before. Two
// in-process backends on a busy host drift apart by scheduling alone,
// so each fill and each lease costs a fixed sleep that outweighs the
// CPU work behind it, and the two stay in step.
func TestSchedulerAffinityKeepsCachesWarm(t *testing.T) {
	const fillDelay, leaseDelay = 2 * time.Millisecond, 2 * time.Millisecond
	var srvs []*service.Server
	var urls []string
	for i := 0; i < 2; i++ {
		srv := service.NewServer(service.Options{Seed: 42, Hooks: &service.Hooks{
			BeforeMeasure: func(int64, string, string) error {
				time.Sleep(fillDelay)
				return nil
			}}})
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(leaseDelay)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		srvs = append(srvs, srv)
		urls = append(urls, ts.URL)
	}
	s, err := NewScheduler(urls, SchedulerOptions{Seed: seedPtr(42), LeaseCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	fills := func() int64 {
		var n int64
		for _, srv := range srvs {
			n += srv.Stats().Cache.Misses
		}
		return n
	}
	jobs := stockJobs(t, 4)
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	local, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		before := fills()
		got, err := s.MeasureBatch(context.Background(), jobs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, local) {
			t.Fatalf("pass %d: scheduled measurements differ from local", pass)
		}
		n := fills() - before
		if pass == 1 && n != int64(len(jobs)) {
			t.Fatalf("pass 1 filled %d cells, want each of the %d once", n, len(jobs))
		}
		if pass == 2 && 4*n >= int64(len(jobs)) {
			t.Fatalf("pass 2 filled %d of %d cells again, want under 25%%", n, len(jobs))
		}
	}
}

// TestSchedulerRejectsSwappedCells: a backend that answers one index
// with another cell's result must not put that cell's numbers in the
// wrong job's row. One backend of two swaps the first and last cells of
// every lease it is sent, so it answers both indexes with the other
// cell; the scheduler must check each echoed identity against the job
// it asked for, fail those streams against that backend, and still
// return a study equal to a local run.
func TestSchedulerRejectsSwappedCells(t *testing.T) {
	good := newBackend(t, service.Options{Seed: 42})
	inner := service.NewServer(service.Options{Seed: 42}).Handler()
	swapper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/measure" {
			req, _, err := service.DecodeMeasureRequest(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			n := len(req.Cells)
			req.Cells[0], req.Cells[n-1] = req.Cells[n-1], req.Cells[0]
			body := service.AppendMeasureRequest(nil, req)
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(swapper.Close)

	s, err := NewScheduler([]string{good.URL, swapper.URL}, SchedulerOptions{
		Seed:             seedPtr(42),
		LeaseCells:       4,
		BreakerCooldown:  20 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		MaxLeaseFailures: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 2)
	remote, err := s.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	local, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatal("study with a cell-swapping backend differs from a local run")
	}
	for _, be := range s.Stats().Backends {
		if be.URL == swapper.URL && be.LeaseFailures == 0 {
			t.Fatal("no lease failure charged to the cell-swapping backend")
		}
	}
}

// TestSchedulerRejectsForeignStreamType: a stream reply that is not a
// frame stream — an older daemon's NDJSON, say — is a backend error
// naming the type it got, charged to that backend, not bytes to decode
// as garbage and retry as a truncated stream.
func TestSchedulerRejectsForeignStreamType(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, `{"header":{"seed":42,"cells":1}}`+"\n")
	}))
	t.Cleanup(ts.Close)
	s, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42), MaxLeaseFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.MeasureBatch(context.Background(), stockJobs(t, 1)[:1], 0)
	var be *backendError
	if !errors.As(err, &be) || !strings.Contains(be.Msg, `"application/x-ndjson"`) || errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("foreign stream type returned %v, want a backend error naming application/x-ndjson", err)
	}
	if st := s.Stats(); st.Backends[0].LeaseFailures != 1 || st.StreamTruncations != 0 {
		t.Fatalf("lease failures %d, truncations %d; want 1 and 0", st.Backends[0].LeaseFailures, st.StreamTruncations)
	}
}

// TestSchedulerCompletionCancelChargesNoFailure stalls one backend's
// first cell until the study is over, so the other backend steals that
// lease and finishes the study. The completion then cancels the
// staller's stream; that cancel is the run's own doing, so the staller
// is charged for the steal and for no lease failure.
func TestSchedulerCompletionCancelChargesNoFailure(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Bool
	staller := newBackend(t, service.Options{Seed: 42, Hooks: &service.Hooks{
		BeforeMeasure: func(int64, string, string) error {
			if stalled.CompareAndSwap(false, true) {
				select {
				case <-release:
				case <-time.After(30 * time.Second):
				}
			}
			return nil
		}}})
	helper := newBackend(t, service.Options{Seed: 42})
	// Closed before the servers shut down (cleanups run last-in first-out),
	// so the stalled handler can return.
	t.Cleanup(func() { close(release) })

	s, err := NewScheduler([]string{staller.URL, helper.URL}, SchedulerOptions{
		Seed:        seedPtr(42),
		LeaseCells:  8,
		LeaseExpiry: 50 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 2)
	got, err := s.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("measured %d of %d cells", len(got), len(jobs))
	}
	if !stalled.Load() {
		t.Fatal("the staller never computed a cell")
	}
	for _, be := range s.Stats().Backends {
		if be.URL != staller.URL {
			continue
		}
		if be.StolenFrom < 1 {
			t.Errorf("staller stolen from %d times, want >= 1: %+v", be.StolenFrom, be)
		}
		if be.LeaseFailures != 0 {
			t.Errorf("staller charged %d lease failures for streams the run's completion canceled: %+v",
				be.LeaseFailures, be)
		}
	}
}
