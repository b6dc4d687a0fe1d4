package service

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/trend"
	"repro/internal/workload"
)

// ingestBuffer bounds the study ingest queue. Studies are whole
// completed batches, so the buffer absorbs bursts of small interactive
// requests; when the writer falls behind a sustained burst, studies are
// dropped (and counted) rather than blocking the serving path.
const ingestBuffer = 64

// ingestSyncDelay is the group-commit window: after a seal, the writer
// holds the fsync open this long for further studies to share it (a
// cluster study arrives as several batches in quick succession). It
// bounds the durability lag of a sealed study; drain and close always
// force the sync regardless.
const ingestSyncDelay = 25 * time.Millisecond

// studyIngest is the asynchronous write path from completed /v1/measure
// batches into the study store. Handlers register a recorder before
// fanning out, deliver measured rows through it, and commit only when
// the whole batch succeeded — so the log only ever gains complete
// studies. Shutdown ordering (see Server.Drain) closes the ingest after
// the worker pool drains: close waits for every registered recorder to
// release, then seals whatever committed, so a SIGTERM mid-study writes
// either the whole study or nothing.
type studyIngest struct {
	store  *store.Store
	logger *slog.Logger
	ch     chan *store.Study
	done   chan struct{}

	mu      sync.Mutex
	closing bool
	// pending counts registered recorders; Add happens under mu against
	// the closing flag, so close()'s Wait cannot race a late begin.
	pending sync.WaitGroup

	recorded atomic.Int64
	dropped  atomic.Int64
	writeErr atomic.Int64
}

func newStudyIngest(st *store.Store, logger *slog.Logger) *studyIngest {
	ing := &studyIngest{
		store:  st,
		logger: logger,
		ch:     make(chan *store.Study, ingestBuffer),
		done:   make(chan struct{}),
	}
	go ing.run()
	return ing
}

// run is the single writer goroutine. Seals group-commit: each study
// is encoded and written as its own segment the moment it arrives, but
// the fsync is held open for ingestSyncDelay so studies landing in
// quick succession share one journal flush instead of paying one per
// seal. An idle ingest therefore syncs every seal within the window,
// and close() syncs whatever a shutdown left unforced.
func (ing *studyIngest) run() {
	defer close(ing.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	dirty := false
	sync := func() {
		if !dirty {
			return
		}
		dirty = false
		if err := ing.store.Sync(); err != nil {
			ing.writeErr.Add(1)
			ing.logger.Error("study store sync failed", slog.String("error", err.Error()))
		}
	}
	for {
		var st *store.Study
		var ok bool
		if dirty {
			timer.Reset(ingestSyncDelay)
			select {
			case st, ok = <-ing.ch:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				sync()
				continue
			}
		} else {
			st, ok = <-ing.ch
		}
		if !ok {
			sync()
			return
		}
		if _, err := ing.store.AppendDeferSync(st); err != nil {
			ing.writeErr.Add(1)
			ing.logger.Error("study store append failed", slog.String("error", err.Error()))
			continue
		}
		dirty = true
		ing.recorded.Add(1)
	}
}

// begin registers a recorder for an in-flight measure batch. Nil-safe:
// with no store attached (or during shutdown) it returns nil, and the
// nil recorder's methods are no-ops.
func (ing *studyIngest) begin(seed int64, cells int) *studyRecorder {
	if ing == nil {
		return nil
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closing {
		return nil
	}
	ing.pending.Add(1)
	return &studyRecorder{ing: ing, seed: seed, rows: make([]store.Row, cells)}
}

// enqueue hands a completed study to the writer. Registered recorders
// only call this before release, and close() only closes the channel
// after every recorder released, so the send cannot race the close.
func (ing *studyIngest) enqueue(st *store.Study) {
	select {
	case ing.ch <- st:
	default:
		ing.dropped.Add(1)
	}
}

// close drains the ingest: no new recorders, wait for in-flight
// batches to commit or abandon, seal everything queued, sync. Safe to
// call more than once.
func (ing *studyIngest) close() {
	if ing == nil {
		return
	}
	ing.mu.Lock()
	already := ing.closing
	ing.closing = true
	ing.mu.Unlock()
	if already {
		<-ing.done
		return
	}
	ing.pending.Wait()
	close(ing.ch)
	<-ing.done
	if err := ing.store.Sync(); err != nil {
		ing.logger.Error("study store sync failed", slog.String("error", err.Error()))
	}
}

// studyRecorder accumulates one batch's measured rows. observe is
// called concurrently from the fan-out (distinct indices); commit and
// release are called once each from the handler goroutine.
type studyRecorder struct {
	ing      *studyIngest
	seed     int64
	rows     []store.Row
	released bool
}

// observe records one measured cell. Index-addressed, so concurrent
// fan-out goroutines never touch the same slot.
func (r *studyRecorder) observe(i int, m *harness.Measurement) {
	if r == nil {
		return
	}
	r.rows[i] = store.RowFromMeasurement(m)
}

// commit enqueues the completed study. Call only after the fan-out
// finished without error: every row slot is filled.
func (r *studyRecorder) commit() {
	if r == nil || len(r.rows) == 0 {
		return
	}
	r.ing.enqueue(&store.Study{Seed: r.seed, Rows: r.rows})
}

// release drops the recorder's pending registration; deferred by the
// handler so abandoned batches (errors, disconnects, drain) unblock
// shutdown.
func (r *studyRecorder) release() {
	if r == nil || r.released {
		return
	}
	r.released = true
	r.ing.pending.Done()
}

// StoreStats is the store block of Stats: segment inventory from the
// store plus ingest-path counters.
type StoreStats struct {
	Segments     int64
	Rows         int64
	Bytes        int64
	LastSealUnix int64
	Recorded     int64
	Dropped      int64
	WriteErrors  int64
}

func (ing *studyIngest) stats() *StoreStats {
	if ing == nil {
		return nil
	}
	st := ing.store.Stats()
	return &StoreStats{
		Segments:     st.Segments,
		Rows:         st.Rows,
		Bytes:        st.Bytes,
		LastSealUnix: st.LastSealUnix,
		Recorded:     ing.recorded.Load(),
		Dropped:      ing.dropped.Load(),
		WriteErrors:  ing.writeErr.Load(),
	}
}

// parseStudyQuery maps the shared /v1/studies query parameters onto a
// store query: processor, benchmark, config (exact matches), seed, and
// since/until as RFC 3339 or Unix seconds.
func parseStudyQuery(r *http.Request) (store.Query, error) {
	v := r.URL.Query()
	q := store.Query{
		Processor: v.Get("processor"),
		Benchmark: v.Get("benchmark"),
		Config:    v.Get("config"),
	}
	if s := v.Get("seed"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return q, fmt.Errorf("bad seed %q", s)
		}
		q.Seed = &n
	}
	var err error
	if q.Since, err = parseTimeParam(v.Get("since")); err != nil {
		return q, err
	}
	if q.Until, err = parseTimeParam(v.Get("until")); err != nil {
		return q, err
	}
	return q, nil
}

func parseTimeParam(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0), nil
	}
	return time.Time{}, fmt.Errorf("bad time %q (want RFC 3339 or Unix seconds)", s)
}

// handleStudiesIndex lists sealed studies (optionally filtered by
// seed/since/until) plus the store inventory.
func (s *Server) handleStudiesIndex(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	q, err := parseStudyQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	metas := make([]store.Meta, 0)
	for _, m := range s.opts.Store.Studies() {
		if q.MatchMeta(m) {
			metas = append(metas, m)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Store   store.Stats  `json:"store"`
		Studies []store.Meta `json:"studies"`
	}{s.opts.Store.Stats(), metas})
}

// StudyRowJSON is one stored measurement row on the wire.
type StudyRowJSON struct {
	StudyID    uint64  `json:"study_id"`
	Seed       int64   `json:"seed"`
	SealedUnix int64   `json:"sealed_unix"`
	Benchmark  string  `json:"benchmark"`
	Processor  string  `json:"processor"`
	Config     string  `json:"configuration"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Watts      float64 `json:"watts"`
	EnergyJ    float64 `json:"energy_j"`
	TimeCIRel  float64 `json:"time_ci_rel"`
	PowerCIRel float64 `json:"power_ci_rel"`
}

// handleStudyRows serves filtered stored rows, capped by ?limit=
// (default 1000).
func (s *Server) handleStudyRows(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	q, err := parseStudyQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	limit := 1000
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if limit, err = strconv.Atoi(ls); err != nil || limit <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", ls))
			return
		}
	}
	recs, err := s.opts.Store.Rows(q, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rows := make([]StudyRowJSON, len(recs))
	for i, rec := range recs {
		rows[i] = StudyRowJSON{
			StudyID:    rec.StudyID,
			Seed:       rec.Seed,
			SealedUnix: rec.Sealed / int64(time.Second),
			Benchmark:  rec.Row.Benchmark,
			Processor:  rec.Row.Processor,
			Config:     rec.Row.ConfigString(),
			Runs:       rec.Row.Runs,
			Seconds:    rec.Row.Seconds,
			Watts:      rec.Row.Watts,
			EnergyJ:    rec.Row.EnergyJ,
			TimeCIRel:  rec.Row.TimeCI.Stats().Relative(),
			PowerCIRel: rec.Row.PowerCI.Stats().Relative(),
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Count int            `json:"count"`
		Rows  []StudyRowJSON `json:"rows"`
	}{len(rows), rows})
}

// collectDataset materializes the filtered slice of the store, mapping
// empty results and store errors to HTTP statuses. A nil return means
// the response was already written.
func (s *Server) collectDataset(w http.ResponseWriter, r *http.Request) *store.Dataset {
	q, err := parseStudyQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	d, err := s.opts.Store.Collect(q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil
	}
	if d.Cells() == 0 {
		writeError(w, http.StatusNotFound, "no stored rows match the query")
		return nil
	}
	return d
}

// parseGroups maps an optional ?group= parameter to workload groups.
func parseGroups(r *http.Request) ([]workload.Group, error) {
	gs := r.URL.Query().Get("group")
	if gs == "" {
		return nil, nil
	}
	for _, g := range workload.Groups() {
		if g.String() == gs {
			return []workload.Group{g}, nil
		}
	}
	return nil, fmt.Errorf("unknown group %q", gs)
}

// StudyAggregateJSON is one configuration's Section 2.6 aggregate
// computed from stored rows.
type StudyAggregateJSON struct {
	Config  string  `json:"configuration"`
	PerfW   float64 `json:"perf_norm"`
	WattsW  float64 `json:"watts"`
	EnergyW float64 `json:"energy_norm"`
	PerfB   float64 `json:"perf_norm_mean"`
	WattsB  float64 `json:"watts_mean"`
	EnergyB float64 `json:"energy_norm_mean"`
}

// handleStudyAggregates aggregates the stored slice with the exact live
// code path (harness.AggregateConfig over a rebuilt reference), so the
// numbers match what the daemon would serve live for the same seed.
func (s *Server) handleStudyAggregates(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	d := s.collectDataset(w, r)
	if d == nil {
		return
	}
	groups, err := parseGroups(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	results, skipped, err := d.Aggregate(groups)
	if err != nil {
		writeStudyAggError(w, err)
		return
	}
	aggs := make([]StudyAggregateJSON, len(results))
	for i, res := range results {
		aggs[i] = StudyAggregateJSON{
			Config:  res.CP.String(),
			PerfW:   res.PerfW,
			WattsW:  res.WattsW,
			EnergyW: res.EnergyW,
			PerfB:   res.PerfB,
			WattsB:  res.WattsB,
			EnergyB: res.EnergyB,
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Seeds      []int64              `json:"seeds"`
		Cells      int                  `json:"cells"`
		Aggregates []StudyAggregateJSON `json:"aggregates"`
		Skipped    []string             `json:"skipped,omitempty"`
	}{d.Seeds(), d.Cells(), aggs, skipped})
}

// writeStudyAggError maps aggregation failures: a missing reference
// cell means the stored slice cannot be normalized (client's query cut
// too deep), anything else is a server fault.
func writeStudyAggError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrMissingCell) {
		writeError(w, http.StatusUnprocessableEntity,
			"stored slice lacks the reference cells needed for normalization: "+err.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// handleStudyExport streams the stored slice as the committed dataset
// CSVs (?table=measurements|aggregates) through the same streamers as
// the live /v1/dataset endpoint — same rows, same order, same byte
// formatting, so a stored full study exports byte-identical CSVs.
// Incomplete configurations are excluded (they cannot fill their grid
// rows).
func (s *Server) handleStudyExport(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	send := csvTable(w, r)
	if send == nil {
		return
	}
	d := s.collectDataset(w, r)
	if d == nil {
		return
	}
	ref, err := d.Reference()
	if err != nil {
		writeStudyAggError(w, err)
		return
	}
	all := d.Configs()
	complete := all[:0:0]
	for _, cp := range all {
		if d.Complete(cp, nil) {
			complete = append(complete, cp)
		}
	}
	if len(complete) == 0 {
		writeError(w, http.StatusUnprocessableEntity, "no complete configurations in the stored slice")
		return
	}
	send(d, ref, complete, s.opts.Workers)
}

// handleStudyTrend replays the stored slice across technology
// generations (internal/trend) and serves the drift report.
func (s *Server) handleStudyTrend(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	d := s.collectDataset(w, r)
	if d == nil {
		return
	}
	groups, err := parseGroups(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rep, err := trend.Analyze(d, groups)
	if err != nil {
		writeStudyAggError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
