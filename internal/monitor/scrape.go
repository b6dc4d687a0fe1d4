package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traceanalytics"
)

// CellLatency is one slow measurement cell observed via a backend's
// span ring — the dashboard's "top-k slowest cells" row source.
type CellLatency struct {
	Benchmark string  `json:"benchmark"`
	Processor string  `json:"processor"`
	Ms        float64 `json:"ms"`
}

// backendState is the latest non-series scrape state for one backend:
// liveness, identity, and the slow-cell leaderboard. Series data lives
// in the store.
type backendState struct {
	mu         sync.Mutex
	up         bool
	scrapeOK   bool
	lastErr    string
	lastScrape time.Time
	lastDur    time.Duration
	failures   int64
	seed       int64
	build      telemetry.Build
	topCells   []CellLatency
	histPrev   map[string]histCum // histogram series key -> last sum/count
}

type histCum struct{ sum, count float64 }

// scraper polls one fleet: /healthz for liveness, /metricsz for every
// Prometheus family and the backend's identity, and /v1/traces for the
// slowest cells. Each poll pushes samples into the store under stable
// series keys; counter-vs-gauge semantics are the detector's concern.
type scraper struct {
	backends  []string
	hc        *http.Client
	timeout   time.Duration
	topCells  int
	userAgent string
	store     *store
	state     map[string]*backendState
	logger    *slog.Logger
	sweeps    atomic.Int64

	// analytics receives every harvested raw span set for cross-backend
	// trace assembly (trace.go); always non-nil under a Monitor.
	analytics *traceanalytics.Engine
}

// traceEvery is how many sweeps pass between /v1/traces scrapes. The
// backend streams its span records one at a time
// (telemetry.WriteSpans), so a trace scrape costs about what the cheap
// endpoints do; it still runs only every 8th sweep, because the
// slow-cell leaderboard does not need per-sweep freshness.
const traceEvery = 8

func newScraper(backends []string, o Options, st *store, logger *slog.Logger) *scraper {
	sc := &scraper{
		backends:  backends,
		hc:        o.HTTPClient,
		timeout:   o.Timeout,
		topCells:  o.TopCells,
		userAgent: "powerperfmon/" + Version + " " + telemetry.BuildInfo().UserAgentToken(),
		store:     st,
		state:     make(map[string]*backendState, len(backends)),
		logger:    logger,
	}
	if sc.hc == nil {
		sc.hc = &http.Client{}
	}
	for _, be := range backends {
		sc.state[be] = &backendState{histPrev: make(map[string]histCum)}
	}
	return sc
}

// scrapeAll polls every backend concurrently and returns when the sweep
// completes. One slow backend delays only its own series, not the
// sweep's siblings; the per-request timeout bounds the whole sweep.
func (sc *scraper) scrapeAll(ctx context.Context) {
	// Traces refresh on the first sweep and every traceEvery-th after.
	withTraces := sc.topCells > 0 && (sc.sweeps.Add(1)-1)%traceEvery == 0
	var wg sync.WaitGroup
	for _, be := range sc.backends {
		wg.Add(1)
		go func(be string) {
			defer wg.Done()
			sc.scrapeOne(ctx, be, withTraces)
		}(be)
	}
	wg.Wait()
}

// scrapeOne polls one backend's endpoints and records the results. The
// up series comes from /healthz alone (a draining backend answers
// /metricsz fine but must read as down); scrape_ok additionally
// requires the metric endpoints to parse.
func (sc *scraper) scrapeOne(ctx context.Context, backend string, withTraces bool) {
	bst := sc.state[backend]
	start := time.Now()

	healthErr := sc.getOK(ctx, backend, "/healthz")
	up := healthErr == nil

	scrapeErr := sc.scrapeMetricsz(ctx, backend, bst, start)
	if withTraces {
		if err := sc.scrapeTraces(ctx, backend, bst); err != nil && scrapeErr == nil {
			scrapeErr = err
		}
	}
	dur := time.Since(start)

	upV, okV := 0.0, 0.0
	if up {
		upV = 1
	}
	if scrapeErr == nil {
		okV = 1
	}
	sc.store.push(backend, "up", Sample{T: start, V: upV})
	sc.store.push(backend, "scrape_ok", Sample{T: start, V: okV})

	bst.mu.Lock()
	bst.up = up
	bst.scrapeOK = scrapeErr == nil
	bst.lastScrape = start
	bst.lastDur = dur
	bst.lastErr = ""
	if !up {
		bst.lastErr = healthErr.Error()
	} else if scrapeErr != nil {
		bst.lastErr = scrapeErr.Error()
	}
	if bst.lastErr != "" {
		bst.failures++
	}
	lastErr := bst.lastErr
	bst.mu.Unlock()

	if lastErr != "" {
		sc.logger.DebugContext(ctx, "scrape failed",
			slog.String("backend", backend), slog.String("error", lastErr))
	}
}

// get fetches one backend path with the monitor's UA and timeout.
func (sc *scraper) get(ctx context.Context, backend, path string) ([]byte, error) {
	if sc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sc.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+path, nil)
	if err != nil {
		return nil, fmt.Errorf("monitor: build request: %w", err)
	}
	req.Header.Set("User-Agent", sc.userAgent)
	resp, err := sc.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("monitor: %s%s: %w", backend, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("monitor: %s%s: read: %w", backend, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("monitor: %s%s: HTTP %d", backend, path, resp.StatusCode)
	}
	return body, nil
}

func (sc *scraper) getOK(ctx context.Context, backend, path string) error {
	_, err := sc.get(ctx, backend, path)
	return err
}

// scrapeMetricsz parses the backend's Prometheus page and pushes every
// counter and gauge sample under its exposition key. Histogram families
// contribute a derived *_mean series — the per-scrape-window mean in
// seconds, computed from the cumulative _sum/_count deltas with reset
// handling — which is what the CI-regression rules watch; buckets and
// the raw _sum/_count are not stored. The powerperf_build_info gauge is
// the backend's identity, kept as scrape state rather than a series.
// Two ratios the rules watch are derived from the page: queue_fill
// (depth over capacity) and cache_hit_rate, the cumulative share of
// lookups served from a completed entry.
func (sc *scraper) scrapeMetricsz(ctx context.Context, backend string, bst *backendState, t time.Time) error {
	body, err := sc.get(ctx, backend, "/metricsz")
	if err != nil {
		return err
	}
	fams, err := telemetry.ParsePrometheus(string(body))
	if err != nil {
		return fmt.Errorf("monitor: %s/metricsz: %w", backend, err)
	}
	type sumCount struct {
		sum, count float64
		hasSum     bool
		hasCount   bool
	}
	page := map[string]float64{} // this page's counter and gauge samples
	for _, f := range fams {
		switch {
		case f.Name == "powerperf_build_info" && len(f.Samples) > 0:
			bst.identify(f.Samples[0])
		case f.Type == "histogram" || f.Type == "summary":
			series := map[string]*sumCount{}
			for _, s := range f.Samples {
				isSum := strings.HasSuffix(s.Name, "_sum")
				if !isSum && !strings.HasSuffix(s.Name, "_count") {
					continue
				}
				base := labelsSuffix(s.Key())
				x := series[base]
				if x == nil {
					x = &sumCount{}
					series[base] = x
				}
				if isSum {
					x.sum, x.hasSum = s.Value, true
				} else {
					x.count, x.hasCount = s.Value, true
				}
			}
			for base, x := range series {
				if !x.hasSum || !x.hasCount {
					continue
				}
				meanKey := f.Name + "_mean" + base
				bst.mu.Lock()
				prev, seen := bst.histPrev[meanKey]
				bst.histPrev[meanKey] = histCum{sum: x.sum, count: x.count}
				bst.mu.Unlock()
				dc := x.count - prev.count
				ds := x.sum - prev.sum
				if !seen || dc < 0 || ds < 0 { // first scrape or counter reset
					dc, ds = x.count, x.sum
				}
				if dc > 0 {
					sc.store.push(backend, meanKey, Sample{T: t, V: ds / dc})
				}
			}
		default:
			for _, s := range f.Samples {
				key := s.Key()
				page[key] = s.Value
				sc.store.push(backend, key, Sample{T: t, V: s.Value})
			}
		}
	}
	if c := page["powerperfd_queue_capacity"]; c > 0 {
		sc.store.push(backend, "queue_fill", Sample{T: t, V: page["powerperfd_queue_depth"] / c})
	}
	if hits, ok := page["powerperfd_cache_hits_total"]; ok {
		rate := 0.0
		if total := hits + page["powerperfd_cache_misses_total"] + page["powerperfd_cache_coalesced_total"]; total > 0 {
			rate = hits / total
		}
		sc.store.push(backend, "cache_hit_rate", Sample{T: t, V: rate})
	}
	return nil
}

// identify records the backend's build and study seed from the labels
// of its powerperf_build_info gauge.
func (bst *backendState) identify(p telemetry.MetricPoint) {
	var b telemetry.Build
	b.Version, _ = p.Label("version")
	b.Commit, _ = p.Label("commit")
	b.GoVersion, _ = p.Label("go")
	modified, _ := p.Label("modified")
	b.Modified = modified == "true"
	seedLabel, _ := p.Label("seed")
	seed, _ := strconv.ParseInt(seedLabel, 10, 64)
	bst.mu.Lock()
	bst.seed = seed
	bst.build = b
	bst.mu.Unlock()
}

// labelsSuffix extracts the "{...}" tail of a series key ("" when
// unlabeled), so _sum and _count samples of one histogram series pair
// up regardless of their name suffix.
func labelsSuffix(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[i:]
	}
	return ""
}

// scrapeTraces harvests the backend's span retention as span records
// (/v1/traces — absolute timestamps and stable ids, the only shape
// that stitches across processes), feeds it to the trace
// assembler, and keeps the top-k slowest measurement cells (span name
// "service.cell", deduplicated by cell, ranked by duration).
func (sc *scraper) scrapeTraces(ctx context.Context, backend string, bst *backendState) error {
	body, err := sc.get(ctx, backend, "/v1/traces")
	if err != nil {
		return err
	}
	var spans []telemetry.SpanData
	if err := json.Unmarshal(body, &spans); err != nil {
		return fmt.Errorf("monitor: %s/v1/traces: %w", backend, err)
	}
	sc.analytics.Ingest(backend, spans)
	slowest := map[string]CellLatency{}
	for _, d := range spans {
		if d.Name != "service.cell" {
			continue
		}
		cell := CellLatency{
			Benchmark: d.Attr("benchmark"),
			Processor: d.Attr("processor"),
			Ms:        float64(d.Dur) / 1e6,
		}
		k := cell.Benchmark + "|" + cell.Processor
		if prev, ok := slowest[k]; !ok || cell.Ms > prev.Ms {
			slowest[k] = cell
		}
	}
	cells := make([]CellLatency, 0, len(slowest))
	for _, c := range slowest {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Ms != cells[j].Ms {
			return cells[i].Ms > cells[j].Ms
		}
		return cells[i].Benchmark+cells[i].Processor < cells[j].Benchmark+cells[j].Processor
	})
	if len(cells) > sc.topCells {
		cells = cells[:sc.topCells]
	}
	bst.mu.Lock()
	bst.topCells = cells
	bst.mu.Unlock()
	return nil
}
