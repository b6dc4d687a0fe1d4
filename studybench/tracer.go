package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
)

// Span names, recorded from outside the program around calls into its
// public functions: study -> render/reference -> pass -> lease exchange
// -> backend handler.
const (
	spanStudy              = "study"
	spanRenderMeasurements = "experiments.render.measurements"
	spanRenderAggregates   = "experiments.render.aggregates"
	spanReference          = "cluster.reference"
	spanPassMeasurements   = "cluster.pass.measurements"
	spanPassAggregates     = "cluster.pass.aggregates"
	spanLease              = "cluster.lease"
	spanHandlerBulk        = "service.handler.bulk"
	spanHandlerInteractive = "service.handler.interactive"
)

// Layers a traced study's wall time is split across, outermost first.
// Each instant of the study is charged to the innermost layer with a
// span open at that instant, so the layers' self times sum to the
// study's wall time exactly; "unwrapped" is the time no wrapper covers.
var layers = []string{"unwrapped", "experiments", "scheduler", "wire", "service"}

// depth maps a span name to its index in layers; interactive handler
// spans are not part of any study and have no depth.
var depth = map[string]int{
	spanStudy:              0,
	spanRenderMeasurements: 1,
	spanRenderAggregates:   1,
	spanReference:          2,
	spanPassMeasurements:   2,
	spanPassAggregates:     2,
	spanLease:              3,
	spanHandlerBulk:        4,
}

// studyHeader carries the study id from the lease wrapper to the
// handler wrapper.
const studyHeader = "X-Studybench-Study"

// span is one recorded interval; times are nanoseconds since the
// tracer's epoch.
type span struct {
	Study int64  `json:"study"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

// tracer records spans in memory and writes them out when the run
// ends. A nil tracer records nothing and installs no wrapper; a tracer
// that is off passes every call straight through, so one fleet can
// serve traced and untraced repetitions alternately.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	study atomic.Int64 // id of the study in flight, 0 between studies

	mu    sync.Mutex
	spans []span
	// The first lease exchange's request and response bodies, replayed
	// by the decode micro-timings.
	leaseReq, leaseResp []byte
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// active reports whether spans are being recorded right now.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// do runs fn inside a span of the current study.
func (t *tracer) do(name string, fn func() error) error {
	if !t.active() {
		return fn()
	}
	start := t.now()
	err := fn()
	t.add(span{Study: t.study.Load(), Name: name, Start: start, End: t.now()})
	return err
}

// beginStudy opens a study span and returns its id and closer.
func (t *tracer) beginStudy(id int64) func() {
	if !t.active() {
		return func() {}
	}
	t.study.Store(id)
	start := t.now()
	return func() {
		t.add(span{Study: id, Name: spanStudy, Start: start, End: t.now()})
		t.study.Store(0)
	}
}

// passSource wraps the scheduler as the dataset streamers' Source and
// records a span around each MeasureBatch pass.
type passSource struct {
	sched *cluster.Scheduler
	t     *tracer
	pass  string
}

func (p *passSource) MeasureBatch(ctx context.Context, jobs []harness.Job, workers int) ([]*harness.Measurement, error) {
	var ms []*harness.Measurement
	err := p.t.do(p.pass, func() (err error) {
		ms, err = p.sched.MeasureBatch(ctx, jobs, workers)
		return err
	})
	return ms, err
}

// leaseTransport times each lease exchange: from sending the request
// until the scheduler closes the response body, which it does after
// decoding the stream's last line.
type leaseTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (t *tracer) wrapTransport(next http.RoundTripper) http.RoundTripper {
	return &leaseTransport{next: next, t: t}
}

func (lt *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := lt.t
	if !t.active() || req.URL.Path != "/v1/measure" {
		return lt.next.RoundTrip(req)
	}
	study := t.study.Load()
	req = req.Clone(req.Context())
	req.Header.Set(studyHeader, strconv.FormatInt(study, 10))
	capture := false
	t.mu.Lock()
	if t.leaseReq == nil && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			t.mu.Unlock()
			return nil, err
		}
		t.leaseReq = body
		req.Body = io.NopCloser(bytes.NewReader(body))
		capture = true
	}
	t.mu.Unlock()
	start := t.now()
	resp, err := lt.next.RoundTrip(req)
	if err != nil {
		t.add(span{Study: study, Name: spanLease, Start: start, End: t.now()})
		return nil, err
	}
	lb := &leaseBody{ReadCloser: resp.Body, t: t, span: span{Study: study, Name: spanLease, Start: start}}
	if capture {
		lb.capture = new(bytes.Buffer)
	}
	resp.Body = lb
	return resp, nil
}

// leaseBody counts response bytes and ends the lease span on Close.
type leaseBody struct {
	io.ReadCloser
	t       *tracer
	span    span
	capture *bytes.Buffer
	once    sync.Once
}

func (b *leaseBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.span.Bytes += int64(n)
	if b.capture != nil {
		b.capture.Write(p[:n])
	}
	return n, err
}

func (b *leaseBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.End = b.t.now()
		b.t.add(b.span)
		if b.capture != nil {
			b.t.mu.Lock()
			b.t.leaseResp = b.capture.Bytes()
			b.t.mu.Unlock()
		}
	})
	return err
}

// wrapHandler times the backend's /v1/measure handler, bulk streams and
// interactive requests separately.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() || r.URL.Path != "/v1/measure" {
			next.ServeHTTP(w, r)
			return
		}
		name := spanHandlerInteractive
		if r.URL.Query().Get("stream") == "1" {
			name = spanHandlerBulk
		}
		study, _ := strconv.ParseInt(r.Header.Get(studyHeader), 10, 64)
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{Study: study, Name: name, Start: start, End: t.now()})
	})
}

// studySpans returns the spans of one study.
func (t *tracer) studySpans(id int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Study == id {
			out = append(out, s)
		}
	}
	return out
}

// spansNamed returns the durations, in ms, of every span with the name.
func (t *tracer) spansNamed(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes charges each instant of a study to the innermost layer with
// a span open at that instant. The returned nanoseconds per layer sum
// to the study span's duration.
func selfTimes(spans []span) (self []int64, total int64) {
	var study *span
	for i := range spans {
		if spans[i].Name == spanStudy {
			study = &spans[i]
		}
	}
	self = make([]int64, len(layers))
	if study == nil {
		return self, 0
	}
	type event struct {
		at    int64
		depth int
		delta int
	}
	var evs []event
	for _, s := range spans {
		d, ok := depth[s.Name]
		if !ok {
			continue
		}
		start, end := max(s.Start, study.Start), min(s.End, study.End)
		if end <= start {
			continue
		}
		evs = append(evs, event{start, d, +1}, event{end, d, -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	open := make([]int, len(layers))
	prev := study.Start
	for _, e := range evs {
		if e.at > prev {
			inner := 0
			for d := len(open) - 1; d >= 0; d-- {
				if open[d] > 0 {
					inner = d
					break
				}
			}
			self[inner] += e.at - prev
			prev = e.at
		}
		open[e.depth] += e.delta
	}
	return self, study.End - study.Start
}

// writeTo writes every recorded span as one JSON object per line.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
