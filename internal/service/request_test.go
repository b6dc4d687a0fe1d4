package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
)

// leaseRequest is a study lease's request as the scheduler builds it:
// the first n grid cells at seed 42 with explicit configurations, full
// detail, the bulk lane.
func leaseRequest(n int) *MeasureRequest {
	seed := int64(42)
	req := &MeasureRequest{Seed: &seed, Detail: DetailFull, Lane: LaneBulk}
	jobs := harness.GridJobs(proc.ConfigSpace(), nil)[:n]
	cfgs := make([]ConfigJSON, n)
	for i, j := range jobs {
		cfgs[i] = ConfigToJSON(j.CP.Config)
		req.Cells = append(req.Cells, CellRequest{Benchmark: j.Bench.Name, Processor: j.CP.Proc.Name, Config: &cfgs[i]})
	}
	return req
}

// requestPayload is a request frame's payload with no seed and empty
// detail and lane, up to the cell count, for hand-built frames.
func requestPayload(cells uint64) []byte {
	return binary.AppendUvarint([]byte{0, 0, 0}, cells)
}

// badRequestFrames holds one request body per class of malformed
// frame; each must be refused with a 400.
func badRequestFrames() map[string][]byte {
	valid := AppendMeasureRequest(nil, leaseRequest(1))
	oneCell := append(requestPayload(1), 3, 'm', 'c', 'f', 7, 'i', '7', ' ', '(', '4', '5', ')', 0)
	return map[string][]byte{
		"length over the bound":         binary.AppendUvarint([]byte{frameRequest}, MaxStreamFrameBytes+1),
		"cell count beyond the payload": rawFrame(frameRequest, append(requestPayload(MaxCells), make([]byte, 16)...)),
		"cell count beyond MaxCells":    rawFrame(frameRequest, append(requestPayload(MaxCells+1), make([]byte, 3*(MaxCells+1))...)),
		"bool byte 2":                   rawFrame(frameRequest, append([]byte{2}, requestPayload(0)[1:]...)),
		"trailing bytes in the frame":   rawFrame(frameRequest, append(oneCell, 0)),
		"bytes after the frame":         append(valid[:len(valid):len(valid)], 'x'),
		"truncated before the length":   {frameRequest},
		"truncated inside the length":   {frameRequest, 0x80},
		"truncated inside the payload":  valid[:len(valid)-3],
		"truncated in a long payload":   append(binary.AppendUvarint([]byte{frameRequest}, MaxStreamFrameBytes), oneCell...),
		"empty frame":                   rawFrame(frameRequest, nil),
	}
}

// TestMeasureRequestFrameRejected posts every malformed request frame
// through the handler: each gets a 400 and a JSON error, the decoder
// never reads the payload of a frame whose length is over the bound,
// and no forged count sizes a buffer.
func TestMeasureRequestFrameRejected(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()
	for name, body := range badRequestFrames() {
		for _, path := range []string{"/v1/measure", "/v1/measure?stream=1"} {
			var r io.Reader = bytes.NewReader(body)
			if name == "length over the bound" {
				r = io.MultiReader(r, tripwire{t})
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, r))
			var eb errorBody
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Errorf("%s to %s: status %d (%s), want 400 and a JSON error", name, path, rec.Code, rec.Body)
			}
		}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, _, err := DecodeMeasureRequest(bytes.NewReader(body))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		// Sizing the cells of a forged count would take over 200 KiB.
		if n := m1.TotalAlloc - m0.TotalAlloc; n > 64<<10+8*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(body), n)
		}
	}
}

// TestMeasureRequestFrameMatchesJSON: one request sent as JSON and as a
// frame gets the same answer on both /v1/measure forms: the same bytes
// from the buffered form, the same frames in request order from the
// stream.
func TestMeasureRequestFrameMatchesJSON(t *testing.T) {
	_, ts := testServer(t)
	req := leaseRequest(3)
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/measure", "/v1/measure?stream=1"} {
		var got [2][]byte
		for i, body := range [][]byte{js, AppendMeasureRequest(nil, req)} {
			resp, err := http.Post(ts.URL+path, StreamContentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v: %s", path, resp.StatusCode, err, got[i])
			}
		}
		if path == "/v1/measure" {
			if !bytes.Equal(got[0], got[1]) {
				t.Errorf("%s: a frame-coded request is answered differently from its JSON", path)
			}
			continue
		}
		// Cells stream in completion order; compare them by index.
		var evs [2][]*StreamEvent
		for i := range got {
			evs[i] = decodeAll(t, bytes.NewReader(got[i]))
			slices.SortFunc(evs[i], func(a, b *StreamEvent) int { return streamRank(a) - streamRank(b) })
		}
		if !reflect.DeepEqual(evs[0], evs[1]) {
			t.Errorf("%s: a frame-coded request is answered differently from its JSON", path)
		}
	}
}

// streamRank orders a stream's events as header, cells by index, done.
func streamRank(ev *StreamEvent) int {
	switch {
	case ev.Header != nil:
		return -1
	case ev.Cell != nil:
		return ev.Cell.Index
	}
	return math.MaxInt32
}

// TestMeasureRequestFrameAllocs: a request frame appends into a warm
// buffer without allocating, at every length the payload takes.
func TestMeasureRequestFrameAllocs(t *testing.T) {
	for _, n := range []int{1, 16, 300} {
		req := leaseRequest(n)
		buf := AppendMeasureRequest(nil, req)
		if allocs := testing.AllocsPerRun(100, func() { buf = AppendMeasureRequest(buf[:0], req) }); allocs != 0 {
			t.Errorf("%d cells: %v allocs per encode, want 0", n, allocs)
		}
	}
}

// FuzzMeasureRequestFrameRoundTrip: any request — nil and set seeds,
// any names, detail and lane, absent and present configurations, any
// clock bits including NaN payloads and ±0 — survives encode and wire
// decode bit for bit, appended after other bytes or not.
func FuzzMeasureRequestFrameRoundTrip(f *testing.F) {
	f.Add(true, int64(42), "full", "bulk", "mcf", "i7 (45)", uint8(0xff), 4, 2, math.Float64bits(2.66), true, uint8(16))
	f.Add(false, int64(0), "", "", "", "\xff\x00", uint8(0), -1, 0, uint64(0x8000000000000000), false, uint8(1))
	f.Add(true, int64(math.MinInt64), "summary", "nope", "lusearch", "Atom (45)", uint8(0x5a), 1<<40, -3, uint64(0x7ff8000000000001), true, uint8(7))
	f.Add(false, int64(-1), "x", "interactive", "db", "", uint8(1), 0, 0, uint64(0), false, uint8(0))

	f.Fuzz(func(t *testing.T, hasSeed bool, seed int64, detail, lane, bench, proc string,
		cfgMask uint8, cores, smt int, clock uint64, turbo bool, n uint8) {
		want := &MeasureRequest{Detail: detail, Lane: lane, Cells: make([]CellRequest, n%20)}
		if hasSeed {
			want.Seed = &seed
		}
		for i := range want.Cells {
			c := &want.Cells[i]
			c.Benchmark, c.Processor = bench, proc
			if i%2 == 1 {
				c.Benchmark, c.Processor = proc, bench+bench
			}
			if cfgMask>>(i%8)&1 == 1 {
				c.Config = &ConfigJSON{Cores: cores + i, SMTWays: smt - i,
					ClockGHz: math.Float64frombits(clock ^ uint64(i)<<51), Turbo: turbo != (i%3 == 0)}
			}
		}
		prefix := []byte(lane)
		frame := AppendMeasureRequest(prefix[:len(prefix):len(prefix)], want)
		if !bytes.Equal(frame[:len(prefix)], prefix) {
			t.Fatal("encoding overwrote the bytes it appends to")
		}
		got, err := readMeasureRequest(bufio.NewReader(bytes.NewReader(frame[len(prefix):])))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bitsEqual(reflect.ValueOf(*got), reflect.ValueOf(*want)) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", got, want)
		}
	})
}

func TestRequestFrameTruncationIsUnexpectedEOF(t *testing.T) {
	for name, body := range badRequestFrames() {
		if !strings.HasPrefix(name, "truncated") {
			continue
		}
		if _, _, err := DecodeMeasureRequest(bytes.NewReader(body)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// TestCellKeyBytesPinned: the daemon's cache key is "m|" and the
// determinism tuple in the bytes of the former
// fmt.Sprintf("m|%d|%s|%s|%d|%d|%.17g|%t", ...) form, over the full
// 45x61 grid at seeds 42 and 0, so a cache keyed before the tuple moved
// into harness finds every cell where it was.
func TestCellKeyBytesPinned(t *testing.T) {
	for _, seed := range []int64{42, 0} {
		for _, j := range harness.GridJobs(proc.ConfigSpace(), nil) {
			cfg := j.CP.Config
			want := fmt.Sprintf("m|%d|%s|%s|%d|%d|%.17g|%t", seed, j.Bench.Name, j.CP.Proc.Name, cfg.Cores, cfg.SMTWays, cfg.ClockGHz, cfg.Turbo)
			if got := cellKey(seed, j); got != want {
				t.Fatalf("cellKey = %q, want %q", got, want)
			}
		}
	}
}
