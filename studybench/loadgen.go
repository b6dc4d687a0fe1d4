package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/service"
)

// loadgen is the open-loop interactive request generator: single-cell
// /v1/measure requests on the interactive lane, sent on a fixed schedule
// whether or not earlier requests have returned, each timed from when it
// was due. Its cells are a seeded permutation of the 488 cells of the
// eight stock configurations (harness.GridJobs' default), under another
// seed than the study's, so on a backend that has not served them yet
// every request is a cache fill.
type loadgen struct {
	seed     int64
	interval time.Duration
	cells    []harness.Job
	client   *http.Client
	resolver *cluster.Resolver

	mu      sync.Mutex
	latency []float64 // ms from due time to the whole reply read
	late    []float64 // ms the send started after its due time
	sent    int
	failed  int
	replies []reply
}

// reply is what the correctness check needs of one answered request.
type reply struct {
	cell   int
	digest uint64
}

// interactiveSeed derives the interactive requests' seed from the
// workload seed; it always differs from the study seed.
func interactiveSeed(seed int64) int64 { return seed ^ 0x5eed }

// markerSeed is the seed of the deployed read-back's marker batch (see
// awaitIngest); it differs from the study and interactive seeds.
func markerSeed(seed int64) int64 { return seed ^ 0xa11 }

func newLoadgen(seed int64) *loadgen {
	iseed := interactiveSeed(seed)
	grid := harness.GridJobs(nil, nil)
	cells := make([]harness.Job, len(grid))
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(grid)) {
		cells[i] = grid[p]
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4
	return &loadgen{
		seed:     iseed,
		interval: time.Second / interactiveRate,
		cells:    cells,
		client:   &http.Client{Transport: tr, Timeout: 30 * time.Second},
		resolver: cluster.NewResolver(),
	}
}

// start sends one request to url every interval, walking the cell
// sequence from its start, until the returned stop function is called;
// stop returns once every reply is in.
func (g *loadgen) start(ctx context.Context, url string) (stop func()) {
	stopc := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		defer wg.Wait()
		t0 := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * g.interval)
			timer.Reset(time.Until(due))
			select {
			case <-timer.C:
			case <-stopc:
				return
			case <-ctx.Done():
				return
			}
			cell := k % len(g.cells)
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.send(ctx, url, due, cell)
			}()
		}
	}()
	return func() {
		close(stopc)
		<-done
	}
}

// measureBody is a single-cell /v1/measure request body.
func measureBody(seed int64, j harness.Job) ([]byte, error) {
	cfg := j.CP.Config
	return json.Marshal(service.MeasureRequest{
		Seed:   &seed,
		Detail: service.DetailFull,
		Cells: []service.CellRequest{{
			Benchmark: j.Bench.Name,
			Processor: j.CP.Proc.Name,
			Config:    &service.ConfigJSON{Cores: cfg.Cores, SMTWays: cfg.SMTWays, ClockGHz: cfg.ClockGHz, Turbo: cfg.Turbo},
		}},
	})
}

func (g *loadgen) send(ctx context.Context, url string, due time.Time, cell int) {
	body, err := measureBody(g.seed, g.cells[cell])
	if err != nil {
		g.record(due, time.Now(), 0, cell, 0, err)
		return
	}
	started := time.Now()
	payload, err := post(ctx, g.client, url, body)
	end := time.Now()
	if err != nil {
		g.record(due, started, 0, cell, 0, err)
		return
	}
	var resp service.MeasureResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		g.record(due, started, 0, cell, 0, err)
		return
	}
	if len(resp.Cells) != 1 {
		g.record(due, started, 0, cell, 0, fmt.Errorf("reply has %d cells", len(resp.Cells)))
		return
	}
	m, err := g.resolver.MeasurementFromCell(&resp.Cells[0])
	if err != nil {
		g.record(due, started, 0, cell, 0, err)
		return
	}
	g.record(due, started, end.Sub(due), cell, measurementDigest(m), nil)
}

// post sends a /v1/measure request and returns the reply body.
func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/measure", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return payload, nil
}

func (g *loadgen) record(due, started time.Time, latency time.Duration, cell int, digest uint64, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sent++
	g.late = append(g.late, float64(started.Sub(due))/1e6)
	if err != nil {
		g.failed++
		return
	}
	g.latency = append(g.latency, float64(latency)/1e6)
	g.replies = append(g.replies, reply{cell: cell, digest: digest})
}

// answered reports how many requests have been answered.
func (g *loadgen) answered() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.replies)
}

// reset forgets everything recorded so far (set-up traffic).
func (g *loadgen) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.latency, g.late, g.replies = nil, nil, nil
	g.sent, g.failed = 0, 0
}

// verify checks every reply against a local harness.MeasureUncached of
// the same cell and returns how many disagree.
func (g *loadgen) verify() (mismatches int, err error) {
	h, err := harness.New(g.seed)
	if err != nil {
		return 0, err
	}
	want := map[int]uint64{}
	for _, r := range g.replies {
		d, ok := want[r.cell]
		if !ok {
			j := g.cells[r.cell]
			m, err := h.MeasureUncached(j.Bench, j.CP)
			if err != nil {
				return 0, err
			}
			d = measurementDigest(m)
			want[r.cell] = d
		}
		if d != r.digest {
			mismatches++
		}
	}
	return mismatches, nil
}
