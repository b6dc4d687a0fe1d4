package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/stats"
)

// decodeAll drains a stream body into its events, failing the test on
// any decode error. Next reuses its event storage, so each event is
// copied out before the next call.
func decodeAll(t *testing.T, r io.Reader) []*StreamEvent {
	t.Helper()
	d := NewStreamDecoder(r)
	var evs []*StreamEvent
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatalf("decode after %d events: %v", len(evs), err)
		}
		evs = append(evs, copyEvent(ev))
	}
}

// copyEvent deep-copies ev out of its decoder's storage.
func copyEvent(ev *StreamEvent) *StreamEvent {
	c := *ev
	if ev.Header != nil {
		h := *ev.Header
		c.Header = &h
	}
	if ev.Cell != nil {
		sc := *ev.Cell
		if d := sc.Result.Full; d != nil {
			dc := *d
			dc.RunSamples = slices.Clone(d.RunSamples)
			sc.Result.Full = &dc
		}
		c.Cell = &sc
	}
	if ev.Done != nil {
		d := *ev.Done
		c.Done = &d
	}
	return &c
}

// TestMeasureStreamMatchesBuffered is the protocol contract: the
// streamed response carries a header, every cell exactly once (tagged
// with its request index, in whatever completion order), and a done
// frame — and the reassembled cells are deeply equal to the buffered
// endpoint's response for the same request.
func TestMeasureStreamMatchesBuffered(t *testing.T) {
	_, ts := testServer(t)
	body := `{"seed":5,"detail":"full","cells":[
		{"benchmark":"mcf","processor":"i7 (45)"},
		{"benchmark":"jess","processor":"i5 (32)"},
		{"benchmark":"vips","processor":"Atom (45)"}]}`

	status, buffered := postMeasure(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("buffered: HTTP %d: %s", status, buffered)
	}
	var bufResp MeasureResponse
	if err := json.Unmarshal(buffered, &bufResp); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/measure?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != StreamContentType {
		t.Fatalf("Content-Type = %q, want %s", ct, StreamContentType)
	}

	evs := decodeAll(t, resp.Body)
	if len(evs) == 0 || evs[0].Header == nil {
		t.Fatal("stream did not start with a header frame")
	}
	if evs[0].Header.Seed != 5 || evs[0].Header.Cells != 3 {
		t.Fatalf("header = %+v, want seed 5, 3 cells", evs[0].Header)
	}
	last := evs[len(evs)-1]
	if last.Done == nil || last.Done.Cells != 3 {
		t.Fatalf("terminal frame = %+v, want done with 3 cells", last)
	}
	got := make([]*CellResult, 3)
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.KeepAlive {
			continue
		}
		if ev.Cell == nil {
			t.Fatalf("unexpected mid-stream frame: %+v", ev)
		}
		if got[ev.Cell.Index] != nil {
			t.Fatalf("cell index %d delivered twice", ev.Cell.Index)
		}
		c := ev.Cell.Result
		got[ev.Cell.Index] = &c
	}
	for i := range got {
		if got[i] == nil {
			t.Fatalf("cell %d never delivered", i)
		}
		if !reflect.DeepEqual(*got[i], bufResp.Cells[i]) {
			t.Fatalf("cell %d: streamed result differs from buffered", i)
		}
	}
}

// TestMeasureStreamKeepAlive holds the measurement path long enough
// that the shortened heartbeat must fire: a client waiting on a cold
// cell sees liveness frames, not a silent connection.
func TestMeasureStreamKeepAlive(t *testing.T) {
	srv := NewServer(Options{
		Seed:            42,
		StreamKeepAlive: 2 * time.Millisecond,
		Hooks: &Hooks{BeforeMeasure: func(int64, string, string) error {
			time.Sleep(30 * time.Millisecond)
			return nil
		}},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/measure?stream=1", "application/json",
		strings.NewReader(`{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	keepalives := 0
	for _, ev := range decodeAll(t, resp.Body) {
		if ev.KeepAlive {
			keepalives++
		}
	}
	if keepalives == 0 {
		t.Fatal("no keep-alive frames while the cell computed")
	}
	if st := srv.Stats(); st.Requests.MeasureStreams != 1 {
		t.Fatalf("measure_streams = %d, want 1", st.Requests.MeasureStreams)
	}
}

// TestMeasureStreamError injects a measurement failure and expects the
// in-band terminal error frame: headers went out as 200 before the
// failure, so the stream protocol is the only way to signal it.
func TestMeasureStreamError(t *testing.T) {
	srv := NewServer(Options{
		Seed: 42,
		Hooks: &Hooks{BeforeMeasure: func(_ int64, bench, _ string) error {
			return errors.New("injected fault")
		}},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/measure?stream=1", "application/json",
		strings.NewReader(`{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := decodeAll(t, resp.Body)
	last := evs[len(evs)-1]
	if last.Error == "" || !strings.Contains(last.Error, "injected fault") {
		t.Fatalf("terminal frame = %+v, want the injected error", last)
	}
}

// gridLease is a lease of the first n cells of the stock grid at full
// detail on the bulk lane, as the scheduler sends one, with the cells
// the handler resolves them to.
func gridLease(t testing.TB, n int) ([]byte, []harness.Job) {
	t.Helper()
	seed := int64(42)
	req := &MeasureRequest{Seed: &seed, Detail: DetailFull, Lane: LaneBulk}
	for _, j := range harness.GridJobs(nil, nil)[:n] {
		cfg := ConfigToJSON(j.CP.Config)
		req.Cells = append(req.Cells, CellRequest{Benchmark: j.Bench.Name, Processor: j.CP.Proc.Name, Config: &cfg})
	}
	body := AppendMeasureRequest(nil, req)
	_, cells, err := DecodeMeasureRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return body, cells
}

// writeCounter wraps a ResponseWriter, counting the handler's Writes
// and the largest, and passing flushes through.
type writeCounter struct {
	http.ResponseWriter
	writes, largest int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.ResponseWriter.Write(p)
}

func (w *writeCounter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// countWrites serves h through a writeCounter per request and hands
// each request's counter to the test once the handler has returned.
func countWrites(h http.Handler, counts chan<- *writeCounter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wc := &writeCounter{ResponseWriter: w}
		h.ServeHTTP(wc, r)
		counts <- wc
	})
}

func postLease(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/measure?stream=1", StreamContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: HTTP %d", resp.StatusCode)
	}
	return resp
}

// countFills is a hook that counts the cells a server computes; it is
// never called for a cache hit.
func countFills(n *atomic.Int64) *Hooks {
	return &Hooks{BeforeMeasure: func(int64, string, string) error {
		n.Add(1)
		return nil
	}}
}

// TestMeasureStreamResidentLeaseIsOneWrite: a lease whose every cell
// the cache holds is answered by the handler alone, in one Write: a
// Content-Length reply, not a chunked one, carrying the header, the
// cells in request order and the done frame, each cell counted as a
// cache hit and none computed.
func TestMeasureStreamResidentLeaseIsOneWrite(t *testing.T) {
	var fills atomic.Int64
	srv := NewServer(Options{Seed: 42, Hooks: countFills(&fills)})
	defer srv.Drain()
	counts := make(chan *writeCounter, 1)
	ts := httptest.NewServer(countWrites(srv.Handler(), counts))
	defer ts.Close()
	body, cells := gridLease(t, 16)

	resp := postLease(t, ts.URL, body)
	decodeAll(t, resp.Body)
	resp.Body.Close()
	<-counts
	before := srv.Stats().Cache

	resp = postLease(t, ts.URL, body)
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wc := <-counts; wc.writes != 1 {
		t.Fatalf("resident lease took %d writes, want 1", wc.writes)
	}
	if resp.ContentLength != int64(len(reply)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("resident reply: Content-Length %d, Transfer-Encoding %v for a %d-byte body; want the length, not chunked",
			resp.ContentLength, resp.TransferEncoding, len(reply))
	}
	evs := decodeAll(t, bytes.NewReader(reply))
	if len(evs) != len(cells)+2 || evs[0].Header == nil || evs[0].Header.Cells != len(cells) {
		t.Fatalf("resident reply has %d frames, want header, %d cells, done", len(evs), len(cells))
	}
	for i, ev := range evs[1 : len(evs)-1] {
		if ev.Cell == nil || ev.Cell.Index != i || ev.Cell.Result.Benchmark != cells[i].Bench.Name {
			t.Fatalf("frame %d is %+v, want cell %d in request order", i+1, ev, i)
		}
	}
	if done := evs[len(evs)-1].Done; done == nil || done.Cells != len(cells) {
		t.Fatalf("terminal frame %+v, want done with %d cells", evs[len(evs)-1], len(cells))
	}
	after := srv.Stats().Cache
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 16 || misses != 0 {
		t.Fatalf("resident lease: %d hits, %d misses, want 16 and 0", hits, misses)
	}
	if n := fills.Load(); n != 16 {
		t.Fatalf("two leases of 16 cells ran the fill hook %d times, want 16", n)
	}
}

// TestMeasureStreamMixedLease: a lease half of whose cells are resident
// delivers every index exactly once, bit-identical to a local
// measurement, and computes only the other half.
func TestMeasureStreamMixedLease(t *testing.T) {
	var fills atomic.Int64
	srv := NewServer(Options{Seed: 42, Hooks: countFills(&fills)})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, cells := gridLease(t, 16)

	var even []harness.Job
	for i := 0; i < len(cells); i += 2 {
		even = append(even, cells[i])
	}
	if err := srv.fanOutMeasure(context.Background(), 42, laneBulk, even, nil, func(int, *harness.Measurement) {}); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().Cache

	resp := postLease(t, ts.URL, body)
	evs := decodeAll(t, resp.Body)
	resp.Body.Close()
	if done := evs[len(evs)-1].Done; done == nil || done.Cells != len(cells) {
		t.Fatalf("terminal frame %+v, want done with %d cells", evs[len(evs)-1], len(cells))
	}
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(cells))
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.KeepAlive {
			continue
		}
		if ev.Cell == nil || seen[ev.Cell.Index] {
			t.Fatalf("unexpected frame %+v", ev)
		}
		i := ev.Cell.Index
		seen[i] = true
		m, err := h.MeasureUncached(cells[i].Bench, cells[i].CP)
		if err != nil {
			t.Fatal(err)
		}
		var want CellResult
		setCellResult(&want, new(CellDetail), cells[i], m)
		if !bitsEqual(reflect.ValueOf(ev.Cell.Result), reflect.ValueOf(want)) {
			t.Fatalf("cell %d differs from a local measurement", i)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never delivered", i)
		}
	}
	after := srv.Stats().Cache
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 8 || misses != 8 {
		t.Fatalf("mixed lease: %d hits, %d misses, want 8 and 8", hits, misses)
	}
	if n := fills.Load(); n != 16 {
		t.Fatalf("8 warmed and 8 leased cells ran the fill hook %d times, want 16", n)
	}
}

// TestMeasureStreamLargeResidentReply: a MaxCells request the cache
// holds whole streams every cell in request order, yet the writer
// never buffers more than streamBufferBytes plus one frame: the reply
// leaves in bounded writes, chunked since it outgrew one buffer.
func TestMeasureStreamLargeResidentReply(t *testing.T) {
	srv := NewServer(Options{Seed: 42})
	defer srv.Drain()
	_, lease := gridLease(t, 16)
	ms := make([]*harness.Measurement, len(lease))
	err := srv.fanOutMeasure(context.Background(), 42, laneBulk, lease, nil, func(i int, m *harness.Measurement) { ms[i] = m })
	if err != nil {
		t.Fatal(err)
	}
	largest := 0 // the longest cell frame
	for i, m := range ms {
		sc := &StreamCell{Index: MaxCells}
		setCellResult(&sc.Result, new(CellDetail), lease[i], m)
		largest = max(largest, len(frames(t, &StreamEvent{Cell: sc})))
	}
	seed := int64(42)
	req := &MeasureRequest{Seed: &seed, Detail: DetailFull, Lane: LaneBulk}
	for i := 0; i < MaxCells; i++ {
		c := lease[i%len(lease)]
		cfg := ConfigToJSON(c.CP.Config)
		req.Cells = append(req.Cells, CellRequest{Benchmark: c.Bench.Name, Processor: c.CP.Proc.Name, Config: &cfg})
	}
	before := srv.Stats().Cache

	rec := httptest.NewRecorder()
	wc := &writeCounter{ResponseWriter: rec}
	srv.Handler().ServeHTTP(wc, httptest.NewRequest(http.MethodPost, "/v1/measure?stream=1",
		bytes.NewReader(AppendMeasureRequest(nil, req))))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("HTTP %d, Content-Length %q; want 200 and no length", rec.Code, rec.Header().Get("Content-Length"))
	}
	if wc.largest >= streamBufferBytes+largest || wc.writes < rec.Body.Len()/(streamBufferBytes+largest) {
		t.Fatalf("%d writes, largest %d bytes, for a %d-byte reply; want each under %d+%d",
			wc.writes, wc.largest, rec.Body.Len(), streamBufferBytes, largest)
	}
	evs := decodeAll(t, rec.Body)
	if len(evs) != MaxCells+2 || evs[0].Header == nil || evs[len(evs)-1].Done == nil || evs[len(evs)-1].Done.Cells != MaxCells {
		t.Fatalf("reply has %d frames, want header, %d cells, done", len(evs), MaxCells)
	}
	for i, ev := range evs[1 : len(evs)-1] {
		if ev.Cell == nil || ev.Cell.Index != i || ev.Cell.Result.Benchmark != req.Cells[i].Benchmark {
			t.Fatalf("frame %d is %+v, want cell %d in request order", i+1, ev, i)
		}
	}
	after := srv.Stats().Cache
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != MaxCells || misses != 0 {
		t.Fatalf("%d hits, %d misses, want %d and 0", hits, misses, MaxCells)
	}
}

// TestMeasureStreamLaneValidation rejects unknown lanes up front, on
// the streamed and buffered paths alike.
func TestMeasureStreamLaneValidation(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/measure?stream=1", "application/json",
		strings.NewReader(`{"lane":"express","cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400 for unknown lane", resp.StatusCode)
	}
}

// frames encodes events with the stream writer, one frame each.
func frames(t testing.TB, evs ...*StreamEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := newStreamWriter(&buf, nil)
	defer sw.release()
	for _, ev := range evs {
		if err := sw.send(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame assembles a frame by hand, for payloads the writer would
// never produce.
func rawFrame(kind byte, payload []byte) []byte {
	return append(binary.AppendUvarint([]byte{kind}, uint64(len(payload))), payload...)
}

// payloadOf returns the payload of ev's frame.
func payloadOf(t *testing.T, ev *StreamEvent) []byte {
	t.Helper()
	f := frames(t, ev)
	n, k := binary.Uvarint(f[1:])
	if k <= 0 || int(n) != len(f)-1-k {
		t.Fatalf("malformed frame %x", f)
	}
	return f[1+k:]
}

// testCell is a summary-only cell: its payload ends in the Full
// presence byte.
var testCell = &StreamCell{Index: 3, Result: CellResult{
	Benchmark: "mcf", Processor: "i7 (45)",
	Config: ConfigJSON{Cores: 4, SMTWays: 2, ClockGHz: 2.66, Turbo: true},
	Suite:  "SPEC CINT2006", Group: "Native Non-scalable", Runs: 3,
	Seconds: 1.5, Watts: 40, EnergyJ: 60, TimeCIRel: 0.01, PowerCIRel: 0.02,
}}

func TestStreamDecoderTolerancesAndTermination(t *testing.T) {
	in := frames(t,
		&StreamEvent{Header: &StreamHeader{Seed: 1, Cells: 2}},
		&StreamEvent{KeepAlive: true},
		&StreamEvent{Done: &StreamDone{Cells: 2}})
	// decodeAll fails on anything but io.EOF after the last frame.
	evs := decodeAll(t, bytes.NewReader(in))
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Header == nil || *evs[0].Header != (StreamHeader{Seed: 1, Cells: 2}) ||
		!evs[1].KeepAlive || evs[2].Done == nil || evs[2].Done.Cells != 2 {
		t.Fatalf("unexpected event sequence: %+v", evs)
	}
}

func TestStreamDecoderTruncatedMidLine(t *testing.T) {
	ka := frames(t, &StreamEvent{KeepAlive: true})
	ka = ka[:len(ka):len(ka)] // each append below copies
	cell := frames(t, &StreamEvent{Cell: testCell})
	for name, in := range map[string][]byte{
		"inside a payload":       append(ka, cell[:len(cell)/2]...),
		"inside a length prefix": append(ka, frameError, 0x80),
		"before a length prefix": append(ka, frameError),
	} {
		d := NewStreamDecoder(bytes.NewReader(in))
		if _, err := d.Next(); err != nil {
			t.Fatalf("%s: first frame: %v", name, err)
		}
		if _, err := d.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: truncation returned %v, want io.ErrUnexpectedEOF", name, err)
		}
		// Poisoned streams stay poisoned.
		if _, err := d.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: sticky error: got %v", name, err)
		}
	}
}

// tripwire fails the test if the decoder reads from it.
type tripwire struct{ t *testing.T }

func (tw tripwire) Read([]byte) (int, error) {
	tw.t.Error("decoder read the payload of an oversized frame")
	return 0, io.EOF
}

func TestStreamDecoderOversizedLine(t *testing.T) {
	head := binary.AppendUvarint([]byte{frameError}, MaxStreamFrameBytes+1)
	d := NewStreamDecoder(io.MultiReader(bytes.NewReader(head), tripwire{t}))
	if _, err := d.Next(); !errors.Is(err, ErrStreamFrameTooLong) {
		t.Fatalf("oversized frame returned %v, want ErrStreamFrameTooLong", err)
	}
	if cap(d.buf) != 0 {
		t.Fatalf("decoder sized a %d-byte buffer for a refused frame", cap(d.buf))
	}
}

func TestStreamDecoderRejectsUnknownLines(t *testing.T) {
	cell := payloadOf(t, &StreamEvent{Cell: testCell})
	last := len(cell) - 1
	badBool := append(append([]byte(nil), cell[:last]...), 2)
	// A Full presence byte, then a run-sample count no payload could
	// hold: sizing a slice from it would panic, so a clean error shows
	// the count was refused before any allocation.
	hugeRuns := binary.AppendUvarint(append(append([]byte(nil), cell[:last]...), 1), 1<<62)
	// One run sample fewer than the count claims.
	shortRuns := binary.AppendUvarint(append(append([]byte(nil), cell[:last]...), 1), 2)
	shortRuns = append(shortRuns, make([]byte, runSampleBytes+7*8+2*(3*8+1))...)
	for name, in := range map[string][]byte{
		"unknown kind":          rawFrame('x', nil),
		"NDJSON line":           []byte(`{"keepalive":true}` + "\n"),
		"keep-alive payload":    rawFrame(frameKeepAlive, []byte{0}),
		"trailing cell bytes":   rawFrame(frameCell, append(append([]byte(nil), cell...), 0)),
		"trailing done bytes":   rawFrame(frameDone, []byte{4, 0}),
		"bool byte 2":           rawFrame(frameCell, badBool),
		"empty error":           rawFrame(frameError, nil),
		"huge run count":        rawFrame(frameCell, hugeRuns),
		"run count over frame":  rawFrame(frameCell, shortRuns),
		"cell without a result": rawFrame(frameCell, []byte{6}),
	} {
		if _, err := NewStreamDecoder(bytes.NewReader(in)).Next(); err == nil || err == io.EOF {
			t.Fatalf("%s: frame %x decoded without error", name, in)
		}
	}
	// The untampered payload decodes, so each rejection above is the
	// tampering's doing.
	ev, err := NewStreamDecoder(bytes.NewReader(rawFrame(frameCell, cell))).Next()
	if err != nil || !reflect.DeepEqual(ev.Cell, testCell) {
		t.Fatalf("untampered cell: %+v, %v", ev, err)
	}
}

// fullCell is testCell with a full detail of n distinct run samples.
func fullCell(n int) *StreamCell {
	c := *testCell
	c.Index, c.Result.Runs = n, n
	d := &CellDetail{
		RunSamples: make([]RunJSON, n),
		Counters:   CountersJSON{Cycles: float64(n), LLCMisses: 1},
		TimeCI:     CIJSON{Mean: 1, Half: 0.1, Level: 0.95, N: n},
		PowerCI:    CIJSON{Mean: 2, Half: 0.2, Level: 0.95, N: n},
	}
	for i := range d.RunSamples {
		d.RunSamples[i] = RunJSON{Seconds: float64(100*n + i), Watts: float64(i), Counters: CountersJSON{Instructions: float64(i + 1)}}
	}
	c.Result.Full = d
	return &c
}

// TestStreamDecoderReuse: one decoder, Reset between streams, gives
// every frame exactly the event a fresh decoder gives for that frame
// alone — no run samples, detail or fields left over from an earlier
// frame, and no sticky error left over from an earlier stream.
func TestStreamDecoderReuse(t *testing.T) {
	evs := []*StreamEvent{
		{Cell: fullCell(20)},
		{Cell: fullCell(3)},
		{Cell: testCell},
		{KeepAlive: true},
		{Done: &StreamDone{Cells: 3}},
	}
	d := NewStreamDecoder(bytes.NewReader(nil))
	for pass := 0; pass < 2; pass++ {
		d.Reset(bytes.NewReader(frames(t, evs...)))
		for i, want := range evs {
			got, err := d.Next()
			if err != nil {
				t.Fatalf("pass %d, frame %d: %v", pass, i, err)
			}
			fresh, err := NewStreamDecoder(bytes.NewReader(frames(t, want))).Next()
			if err != nil {
				t.Fatalf("pass %d, frame %d alone: %v", pass, i, err)
			}
			if !reflect.DeepEqual(got, fresh) || !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, frame %d: reused decoder gave %+v, a fresh one %+v, encoded %+v", pass, i, got, fresh, want)
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("pass %d: end of stream returned %v, want io.EOF", pass, err)
		}
	}
	d.Reset(bytes.NewReader(rawFrame('x', nil)))
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("unknown frame kind decoded: %v", err)
	}
	d.Reset(bytes.NewReader(frames(t, evs[1])))
	if got, err := d.Next(); err != nil || !reflect.DeepEqual(got, evs[1]) {
		t.Fatalf("after Reset from a poisoned stream: %+v, %v", got, err)
	}
}

// TestStreamWriterCellAllocs: a cell frame encoded from the cached
// measurement writes the same bytes as one encoded from a freshly
// built CellResult, and a warm writer encodes it without allocating.
func TestStreamWriterCellAllocs(t *testing.T) {
	ix := names()
	c := harness.Job{Bench: ix.benches["mcf"], CP: proc.ConfiguredProcessor{Proc: ix.procs["i7 (45)"]}}
	c.CP.Config = c.CP.Proc.Stock()
	m := func(n int) *harness.Measurement {
		m := &harness.Measurement{Bench: c.Bench, CP: c.CP, Runs: make([]harness.RunSample, n),
			Seconds: 1.5, Watts: 40, EnergyJ: 60, Counters: counters.Counters{Cycles: 7},
			TimeCI: stats.CI{Mean: 1.5, Half: 0.01, Level: 0.95, N: n}, PowerCI: stats.CI{Mean: 40, Half: 0.2, Level: 0.95, N: n}}
		for i := range m.Runs {
			m.Runs[i] = harness.RunSample{Seconds: float64(n + i), Watts: float64(i), Counters: counters.Counters{LLCMisses: float64(i)}}
		}
		return m
	}
	ms := []*harness.Measurement{m(20), m(3), m(5)}

	var got, want bytes.Buffer
	sw := newStreamWriter(&got, nil)
	defer sw.release()
	ref := newStreamWriter(&want, nil)
	defer ref.release()
	for i, m := range ms {
		for _, full := range []bool{true, false} {
			if err := sw.sendCell(i, c, m, full); err != nil {
				t.Fatal(err)
			}
			sc := &StreamCell{Index: i}
			var d *CellDetail
			if full {
				d = new(CellDetail)
			}
			setCellResult(&sc.Result, d, c, m)
			if err := ref.send(&StreamEvent{Cell: sc}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.flush(); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("frames encoded from the measurement differ from frames of a fresh CellResult")
	}

	var w countingWriter
	sw.w = &w
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		k++
		if err := sw.sendCell(k%16, c, ms[k%len(ms)], true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm writer: %v allocs per cell frame, want 0", allocs)
	}
}

// FuzzStreamDecode hardens the stream decoder against arbitrary bytes:
// truncated chunks, interleaved keep-alives, binary garbage, and
// oversized frames must surface as clean errors — never a panic, an
// infinite loop, or a buffer beyond the per-frame bound.
func FuzzStreamDecode(f *testing.F) {
	full := *testCell
	full.Result.Full = &CellDetail{
		RunSamples: []RunJSON{{Seconds: 1, Watts: 2, Counters: CountersJSON{Cycles: 3}}},
		TimeCI:     CIJSON{Mean: 1, Half: 0.1, Level: 0.95, N: 1},
	}
	whole := frames(f, &StreamEvent{Header: &StreamHeader{Seed: 42, Cells: 1}}, &StreamEvent{KeepAlive: true},
		&StreamEvent{Cell: &full}, &StreamEvent{Done: &StreamDone{Cells: 1}})
	f.Add(whole)
	f.Add(whole[:len(whole)/2]) // severed mid-frame
	f.Add(frames(f, &StreamEvent{Error: "boom"}))
	f.Add(frames(f, &StreamEvent{Done: &StreamDone{}}, &StreamEvent{Done: &StreamDone{}}))
	f.Add(frames(f, &StreamEvent{Error: strings.Repeat("y", 4096)}))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '\n'})
	f.Add(bytes.Repeat(frames(f, &StreamEvent{KeepAlive: true}), 64))
	f.Add(binary.AppendUvarint([]byte{frameCell}, MaxStreamFrameBytes+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewStreamDecoder(bytes.NewReader(data))
		events := 0
		var firstErr error
		for {
			ev, err := d.Next()
			if err != nil {
				firstErr = err
				break
			}
			if ev == nil {
				t.Fatal("nil event with nil error")
			}
			// Exactly one protocol field must be set (Error counts only
			// when non-empty); the decoder promised a closed vocabulary.
			set := 0
			if ev.Header != nil {
				set++
			}
			if ev.Cell != nil {
				set++
			}
			if ev.KeepAlive {
				set++
			}
			if ev.Error != "" {
				set++
			}
			if ev.Done != nil {
				set++
			}
			if set != 1 {
				t.Fatalf("decoded event with %d fields set from %q", set, data)
			}
			if events++; events > len(data) {
				t.Fatal("more events than input bytes: decoder is looping")
			}
		}
		// The payload buffer must respect the documented bound.
		if cap(d.buf) > MaxStreamFrameBytes {
			t.Fatalf("frame buffer grew to %d, bound is %d", cap(d.buf), MaxStreamFrameBytes)
		}
		// Errors are sticky: the poisoned decoder repeats itself.
		if firstErr != io.EOF {
			if _, err := d.Next(); err != firstErr {
				t.Fatalf("sticky error broken: first %v, then %v", firstErr, err)
			}
		}
	})
}

// FuzzStreamFrameRoundTrip: any names, index and float64 bit patterns
// survive encode → decode bit for bit — NaN payloads, signed zeros,
// infinities and subnormals included, none of which JSON can carry
// exactly (NaN and ±Inf not at all).
func FuzzStreamFrameRoundTrip(f *testing.F) {
	f.Add("mcf", "i7 (45)", 5, uint8(3), uint64(0x7ff8000000000001), uint64(0x8000000000000000), uint64(0x7ff0000000000000))
	f.Add("", "\xff\x00", -1, uint8(0), uint64(0xfff0000000000000), uint64(1), uint64(0x000fffffffffffff))
	f.Add("lusearch", "Atom (45)", 1<<40, uint8(20), uint64(0xfff4000000000000), uint64(0), uint64(0x3ff0000000000001))

	f.Fuzz(func(t *testing.T, bench, proc string, index int, runs uint8, a, b, c uint64) {
		// Spread the three patterns over every float field, rotated so
		// neighbouring fields differ.
		pats := [...]uint64{a, b, c, a ^ b, b ^ c, ^a, a + c}
		k := 0
		fl := func() float64 {
			k++
			return math.Float64frombits(pats[k%len(pats)])
		}
		cnt := func() CountersJSON {
			return CountersJSON{fl(), fl(), fl(), fl(), fl(), fl(), fl()}
		}
		want := &StreamCell{Index: index, Result: CellResult{
			Benchmark: bench, Processor: proc,
			Config: ConfigJSON{Cores: index, SMTWays: -index, ClockGHz: fl(), Turbo: a&1 == 1},
			Suite:  proc + bench, Group: bench, Runs: int(runs),
			Seconds: fl(), Watts: fl(), EnergyJ: fl(), TimeCIRel: fl(), PowerCIRel: fl(),
		}}
		if runs%2 == 1 {
			d := &CellDetail{RunSamples: make([]RunJSON, runs), Counters: cnt(),
				TimeCI: CIJSON{fl(), fl(), fl(), int(runs)}, PowerCI: CIJSON{fl(), fl(), fl(), -int(runs)}}
			for i := range d.RunSamples {
				d.RunSamples[i] = RunJSON{Seconds: fl(), Watts: fl(), Counters: cnt()}
			}
			want.Result.Full = d
		}
		ev, err := NewStreamDecoder(bytes.NewReader(frames(t, &StreamEvent{Cell: want}))).Next()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if ev.Cell == nil || !bitsEqual(reflect.ValueOf(*ev.Cell), reflect.ValueOf(*want)) {
			t.Fatalf("round trip changed the cell:\n got %+v\nwant %+v", ev.Cell, want)
		}
	})
}

// bitsEqual is reflect.DeepEqual with float64s compared by their bits,
// so a NaN equals only the same NaN and -0 differs from +0.
func bitsEqual(x, y reflect.Value) bool {
	switch x.Kind() {
	case reflect.Float64:
		return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
	case reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		return bitsEqual(x.Elem(), y.Elem())
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			if !bitsEqual(x.Field(i), y.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if !bitsEqual(x.Index(i), y.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(x.Interface(), y.Interface())
	}
}

// TestPoolLanePriority saturates the pool with bulk work and then
// submits an interactive task: the biased consumer must run it ahead of
// the queued bulk backlog — the whole point of the two lanes.
func TestPoolLanePriority(t *testing.T) {
	p := newWorkPool(1, 64)
	defer p.Close()

	var bulkStarted, interactiveDone atomic.Int64
	release := make(chan struct{})
	// Occupy the single worker so everything below queues behind it.
	gate := make(chan struct{})
	go p.DoLane(context.Background(), laneBulk, func() (any, error) {
		close(gate)
		<-release
		return nil, nil
	})
	<-gate

	const bulk = 16
	bulkErrs := make(chan error, bulk)
	for i := 0; i < bulk; i++ {
		go func() {
			_, err := p.DoLane(context.Background(), laneBulk, func() (any, error) {
				bulkStarted.Add(1)
				return nil, nil
			})
			bulkErrs <- err
		}()
	}
	// Wait until the bulk backlog is actually queued.
	for start := time.Now(); len(p.queues[laneBulk]) < bulk; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("bulk backlog never queued (depth %d)", len(p.queues[laneBulk]))
		}
		time.Sleep(time.Millisecond)
	}

	interactiveErr := make(chan error, 1)
	go func() {
		_, err := p.DoLane(context.Background(), laneInteractive, func() (any, error) {
			interactiveDone.Add(1)
			if n := bulkStarted.Load(); n != 0 {
				t.Errorf("interactive ran after %d bulk tasks, want 0", n)
			}
			return nil, nil
		})
		interactiveErr <- err
	}()
	// Let the interactive submission reach its queue before releasing
	// the worker.
	for start := time.Now(); len(p.queues[laneInteractive]) < 1; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("interactive task never queued")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := <-interactiveErr; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bulk; i++ {
		if err := <-bulkErrs; err != nil {
			t.Fatal(err)
		}
	}
	if interactiveDone.Load() != 1 || bulkStarted.Load() != bulk {
		t.Fatalf("interactive=%d bulk=%d, want 1 and %d",
			interactiveDone.Load(), bulkStarted.Load(), bulk)
	}
}
