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
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// decodeAll drains a stream body into its events, failing the test on
// any decode error.
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
		evs = append(evs, ev)
	}
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
	for _, ev := range evs {
		if err := sw.send(ev); err != nil {
			t.Fatal(err)
		}
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
