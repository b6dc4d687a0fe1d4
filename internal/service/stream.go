package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/harness"
)

// The measure stream (POST /v1/measure?stream=1, Content-Type
// StreamContentType) is a sequence of length-prefixed binary frames,
// cells in completion order, each tagged with its request index so the
// client reassembles request order regardless of arrival order. A frame
// is one kind byte, the payload length as a uvarint, and the payload.
// The kind vocabulary is closed — exactly one of the StreamEvent fields
// is set per frame:
//
//	'h' header      seed, cells          first frame, echoes the batch shape
//	'c' cell        index, CellResult    one measured cell, any order
//	'k' keep-alive  (empty)              heartbeat while cells compute
//	'e' error       message (non-empty)  terminal: the batch failed
//	'd' done        cells                terminal: every cell was sent
//
// A measure request body may be one frame of a sixth kind instead of
// JSON (request.go); DecodeMeasureRequest tells the two apart by the
// body's first byte, since 'q' cannot begin a JSON text:
//
//	'q' request     MeasureRequest       the whole body: seed, detail, lane, cells
//
// Payloads hold zig-zag varints for Go ints, uvarint-length-prefixed
// strings, one byte (0 or 1) per bool, and the raw little-endian
// IEEE-754 bits of every float64 — the encoding internal/store segments
// use — so a decoded CellResult holds exactly the float64s the backend
// measured. A CellResult is laid out in field order; its Full detail
// follows a presence byte as the run-sample count, each run (seconds,
// watts, counters), the mean counters, and the two confidence
// intervals (mean, half, level, n). A request frame holds a presence
// byte and the seed, the detail and lane strings, the uvarint cell
// count, and per cell the benchmark and processor names, then a
// presence byte and the configuration laid out as in a CellResult.
//
// A stream that ends without a terminal frame was truncated (backend
// death, severed connection) and the client must treat every unsent cell
// as unmeasured. Keep-alives let a client distinguish a slow backend
// from a dead connection without lowering its read deadline below the
// cost of a cold cell.

// StreamContentType is the media type of a measure stream.
const StreamContentType = "application/vnd.powerperf.frames"

// Frame kinds.
const (
	frameHeader    = 'h'
	frameCell      = 'c'
	frameKeepAlive = 'k'
	frameError     = 'e'
	frameDone      = 'd'
	frameRequest   = 'q'
)

// MaxStreamFrameBytes bounds one frame's payload. The largest legitimate
// frame is a full-detail cell (twenty run samples with counters, about
// 1.6 KiB); the bound leaves over two orders of magnitude of headroom
// while keeping a malicious or corrupted stream from ballooning the
// decoder's buffer.
const MaxStreamFrameBytes = 1 << 20

// ErrStreamFrameTooLong marks a frame whose declared length exceeds
// MaxStreamFrameBytes; the decoder refuses it before reading any of
// its payload and the stream is poisoned.
var ErrStreamFrameTooLong = errors.New("service: stream frame exceeds MaxStreamFrameBytes")

// StreamHeader is the first frame of a measure stream.
type StreamHeader struct {
	Seed  int64
	Cells int
}

// StreamCell is one measured cell: the index into the request's cell
// list plus the result, exactly the shape the buffered response carries.
type StreamCell struct {
	Index  int
	Result CellResult
}

// StreamDone is the terminal frame of a successful stream.
type StreamDone struct {
	Cells int
}

// StreamEvent is one frame of the measure stream; exactly one field is
// set per frame.
type StreamEvent struct {
	Header    *StreamHeader
	Cell      *StreamCell
	KeepAlive bool
	Error     string
	Done      *StreamDone
}

// StreamDecoder reads measure-stream frames from r with a hard
// per-frame buffer bound: truncated streams surface as
// io.ErrUnexpectedEOF, oversized frames as ErrStreamFrameTooLong, and
// malformed payloads as a normal decode error — never a panic, and never
// a buffer larger than MaxStreamFrameBytes. Hardened by FuzzStreamDecode.
//
// A decoder owns the storage it decodes into: its read buffer, its
// payload buffer and the event Next returns are reused frame after
// frame, and across streams through Reset, so a warm decoder decodes a
// cell frame without allocating.
type StreamDecoder struct {
	r   *bufio.Reader
	buf []byte
	err error // sticky: a poisoned stream stays poisoned

	// The event Next returns and the values it points at.
	ev     StreamEvent
	header StreamHeader
	cell   StreamCell
	detail CellDetail
	done   StreamDone
}

// NewStreamDecoder builds a decoder over r.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{r: bufio.NewReader(r)}
}

// Reset makes d read a new stream from r, clearing any sticky error
// and keeping every buffer, so one decoder serves stream after stream.
func (d *StreamDecoder) Reset(r io.Reader) {
	d.r.Reset(r)
	d.err = nil
}

// Next returns the next stream event. Keep-alive frames are returned
// like any other event — callers skip them. io.EOF is returned only at
// a clean boundary after a complete frame; EOF inside a frame (its
// length prefix or its payload) means the stream was severed and
// surfaces as io.ErrUnexpectedEOF.
//
// The event, and everything it points to, is storage the decoder owns:
// it stays valid only until the next call to Next or Reset, which
// overwrites it. A caller that keeps an event, or a slice within it,
// across calls must copy it. Its strings are not overwritten and may
// be kept.
func (d *StreamDecoder) Next() (*StreamEvent, error) {
	if d.err != nil {
		return nil, d.err
	}
	ev, err := d.next()
	if err != nil && err != io.EOF {
		d.err = err
	}
	return ev, err
}

func (d *StreamDecoder) next() (*StreamEvent, error) {
	kind, err := d.r.ReadByte()
	if err != nil {
		return nil, err // io.EOF here falls on a frame boundary
	}
	n, err := binary.ReadUvarint(d.r)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, fmt.Errorf("service: decode stream frame length: %w", err)
	case n > MaxStreamFrameBytes:
		return nil, ErrStreamFrameTooLong
	}
	if uint64(cap(d.buf)) < n {
		d.buf = make([]byte, min(max(int(n), 2*cap(d.buf)), MaxStreamFrameBytes))
	}
	p := d.buf[:n]
	if _, err := io.ReadFull(d.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return d.decodeFrame(kind, p)
}

// decodeFrame decodes one frame payload into the decoder's event
// storage; every byte must be consumed.
func (d *StreamDecoder) decodeFrame(kind byte, p []byte) (*StreamEvent, error) {
	fr := frameReader{b: p}
	ev := &d.ev
	*ev = StreamEvent{}
	switch kind {
	case frameHeader:
		d.header = StreamHeader{Seed: fr.varint(), Cells: fr.int()}
		ev.Header = &d.header
	case frameCell:
		d.cell.Index = fr.int()
		fr.cellResult(&d.cell.Result, &d.detail)
		ev.Cell = &d.cell
	case frameKeepAlive:
		ev.KeepAlive = true
	case frameError:
		if len(p) == 0 {
			return nil, errors.New("service: empty stream error frame")
		}
		ev.Error = string(p)
		fr.off = len(p)
	case frameDone:
		d.done = StreamDone{Cells: fr.int()}
		ev.Done = &d.done
	default:
		return nil, fmt.Errorf("service: unknown stream frame kind %#x", kind)
	}
	if fr.err != nil {
		return nil, fmt.Errorf("service: decode stream frame %q: %w", kind, fr.err)
	}
	if fr.off != len(p) {
		return nil, fmt.Errorf("service: stream frame %q has %d trailing bytes", kind, len(p)-fr.off)
	}
	return ev, nil
}

// runSampleBytes is the encoded size of one run sample: seconds, watts
// and seven counters, all float64.
const runSampleBytes = 9 * 8

// errShortPayload marks a frame whose payload ends before its fields do.
var errShortPayload = errors.New("payload ends early")

// frameReader is a bounds-checked cursor over one frame payload. The
// first failed read sets err and every later read returns zero, so a
// decoder checks err once at the end.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

func (r *frameReader) remaining() int { return len(r.b) - r.off }

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errors.New("bad uvarint"))
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(errors.New("bad varint"))
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) int() int { return int(r.varint()) }

func (r *frameReader) f64() float64 {
	if r.remaining() < 8 {
		r.fail(errShortPayload)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *frameReader) bool() bool {
	if r.remaining() < 1 {
		r.fail(errShortPayload)
		return false
	}
	v := r.b[r.off]
	if v > 1 {
		r.fail(fmt.Errorf("bool byte %#x", v))
		return false
	}
	r.off++
	return v == 1
}

// strBytes reads a length-prefixed string and returns its bytes, which
// alias the payload.
func (r *frameReader) strBytes() []byte {
	n := r.uvarint()
	if n > uint64(r.remaining()) {
		r.fail(errShortPayload)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// known returns the string b spells: want itself when they are equal,
// which costs no allocation, and a fresh copy of b otherwise.
func known(b []byte, want string) string {
	if string(b) == want {
		return want
	}
	return string(b)
}

func (r *frameReader) config() ConfigJSON {
	return ConfigJSON{Cores: r.int(), SMTWays: r.int(), ClockGHz: r.f64(), Turbo: r.bool()}
}

func (r *frameReader) counters() CountersJSON {
	return CountersJSON{
		Cycles: r.f64(), Instructions: r.f64(), AppInstructions: r.f64(), ServiceInstructions: r.f64(),
		LLCMisses: r.f64(), DTLBMisses: r.f64(), BranchInstructions: r.f64(),
	}
}

func (r *frameReader) ci() CIJSON {
	return CIJSON{Mean: r.f64(), Half: r.f64(), Level: r.f64(), N: r.int()}
}

// cellResult decodes a cell into c, and its full detail, if present,
// into d, reusing d's run-sample storage. Names resolve against the
// per-process index request decoding uses (names), and the suite and
// group against the resolved benchmark, so a cell of the known
// workload and fleet decodes without allocating; any other name
// decodes as a fresh string, for the caller's identity checks to
// reject.
func (r *frameReader) cellResult(c *CellResult, d *CellDetail) {
	ix := names()
	benchName := r.strBytes()
	var suite, group string
	if b, ok := ix.benches[string(benchName)]; ok {
		c.Benchmark, suite, group = b.Name, string(b.Suite), b.Group.String()
	} else {
		c.Benchmark = string(benchName)
	}
	c.Processor = ix.procName(r.strBytes())
	c.Config = r.config()
	c.Suite = known(r.strBytes(), suite)
	c.Group = known(r.strBytes(), group)
	c.Runs = r.int()
	c.Seconds = r.f64()
	c.Watts = r.f64()
	c.EnergyJ = r.f64()
	c.TimeCIRel = r.f64()
	c.PowerCIRel = r.f64()
	c.Full = nil
	if !r.bool() {
		return
	}
	// The count is checked against the bytes present before the slice
	// is sized from it, so a forged count cannot force a large
	// allocation.
	n := r.uvarint()
	if n > uint64(r.remaining()/runSampleBytes) {
		r.fail(fmt.Errorf("%d run samples exceed the frame", n))
		return
	}
	runs := d.RunSamples
	if runs == nil || uint64(cap(runs)) < n {
		runs = make([]RunJSON, n)
	}
	runs = runs[:n]
	for i := range runs {
		runs[i] = RunJSON{Seconds: r.f64(), Watts: r.f64(), Counters: r.counters()}
	}
	*d = CellDetail{RunSamples: runs, Counters: r.counters(), TimeCI: r.ci(), PowerCI: r.ci()}
	c.Full = d
}

// streamWriter serializes measure-stream frames onto one HTTP response.
// Frames collect in one buffer and reach the response in one Write per
// flush: cells arrive on a channel from the measurement fan-out,
// keep-alives fire while no cell is ready, and the response flushes
// whenever the channel momentarily drains (batching flushes under
// load, staying prompt when cells trickle). The buffer is written out
// whenever it reaches streamBufferBytes, so however many cells a reply
// carries, the writer holds at most that much plus one frame.
type streamWriter struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte // frames not yet written, reused so a frame costs no allocation
	wrote   bool   // some frames have been written to w
	err     error  // sticky: the first failed Write
	cells   int    // cell frames sent

	// cell and detail hold the wire form of the cell being encoded,
	// refilled for every cell frame.
	cell   StreamCell
	detail CellDetail
}

// streamBufferBytes is the size at which a stream writer writes its
// buffer out. A 16-cell full-detail lease (about 15 KB) fits, so a
// lease answered from the cache is one Write; a MaxCells reply (about
// 5 MB) goes out in pieces of this size plus at most one frame, which
// bounds the storage a pooled writer keeps.
const streamBufferBytes = 64 << 10

// streamItem is one measured cell on its way to the stream writer: its
// index in the request and the measurement the cache holds.
type streamItem struct {
	index int
	m     *harness.Measurement
}

// streamWriters recycles writers across requests, so a lease starts
// with its frame buffer and run-sample storage already sized.
var streamWriters = sync.Pool{New: func() any { return new(streamWriter) }}

func newStreamWriter(w io.Writer, f http.Flusher) *streamWriter {
	sw := streamWriters.Get().(*streamWriter)
	sw.w, sw.flusher = w, f
	return sw
}

// release returns sw to the pool; the caller must not use it again.
func (sw *streamWriter) release() {
	sw.w, sw.flusher = nil, nil
	sw.buf, sw.wrote, sw.err, sw.cells = sw.buf[:0], false, nil, 0
	streamWriters.Put(sw)
}

// frameRoom is the space send reserves ahead of a payload for the kind
// byte and the longest uvarint length.
const frameRoom = 1 + binary.MaxVarintLen64

// send appends ev as one frame to the buffer, writing the buffer out
// once it reaches streamBufferBytes. After a failed Write it sends
// nothing and returns that error.
func (sw *streamWriter) send(ev *StreamEvent) error {
	if sw.err != nil {
		return sw.err
	}
	at := len(sw.buf)
	b := append(sw.buf, make([]byte, frameRoom)...)
	var kind byte
	switch {
	case ev.Header != nil:
		kind = frameHeader
		b = binary.AppendVarint(b, ev.Header.Seed)
		b = binary.AppendVarint(b, int64(ev.Header.Cells))
	case ev.Cell != nil:
		kind = frameCell
		b = binary.AppendVarint(b, int64(ev.Cell.Index))
		b = appendCellResult(b, &ev.Cell.Result)
		sw.cells++
	case ev.KeepAlive:
		kind = frameKeepAlive
	case ev.Error != "":
		kind = frameError
		b = append(b, ev.Error...)
	case ev.Done != nil:
		kind = frameDone
		b = binary.AppendVarint(b, int64(ev.Done.Cells))
	default:
		return errors.New("service: empty stream event")
	}
	// Slide the frame down over the unused part of the reserved room.
	sw.buf = append(b[:at], b[putFrameHeader(b, at, kind):]...)
	if len(sw.buf) >= streamBufferBytes {
		return sw.writeOut()
	}
	return nil
}

// putFrameHeader writes kind and the payload's length into the
// frameRoom bytes reserved at b[at:], right-aligned against the payload
// that fills the rest of b, and returns the offset the frame starts at.
func putFrameHeader(b []byte, at int, kind byte) int {
	var n [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(n[:], uint64(len(b)-at-frameRoom))
	start := at + frameRoom - 1 - ln
	b[start] = kind
	copy(b[start+1:], n[:ln])
	return start
}

// sendCell sends the cell frame of a measurement taken for c at the
// request's index. The wire form is filled into the writer's own cell
// and detail, so the frame costs no allocation, and its bytes are the
// ones send writes for the same CellResult. full selects the
// reconstruction-grade shape.
func (sw *streamWriter) sendCell(index int, c harness.Job, m *harness.Measurement, full bool) error {
	var d *CellDetail
	if full {
		d = &sw.detail
	}
	sw.cell.Index = index
	setCellResult(&sw.cell.Result, d, c, m)
	return sw.send(&StreamEvent{Cell: &sw.cell})
}

// writeOut hands every buffered frame to w in one Write, without a
// flush.
func (sw *streamWriter) writeOut() error {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
		sw.wrote = true
	}
	sw.buf = sw.buf[:0]
	return sw.err
}

// flush writes the buffered frames out and pushes them to the client.
func (sw *streamWriter) flush() error {
	if err := sw.writeOut(); err != nil {
		return err
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendConfig(b []byte, c *ConfigJSON) []byte {
	b = binary.AppendVarint(b, int64(c.Cores))
	b = binary.AppendVarint(b, int64(c.SMTWays))
	b = appendF64(b, c.ClockGHz)
	return appendBool(b, c.Turbo)
}

func appendCounters(b []byte, c *CountersJSON) []byte {
	for _, v := range [...]float64{c.Cycles, c.Instructions, c.AppInstructions, c.ServiceInstructions,
		c.LLCMisses, c.DTLBMisses, c.BranchInstructions} {
		b = appendF64(b, v)
	}
	return b
}

func appendCI(b []byte, ci *CIJSON) []byte {
	b = appendF64(b, ci.Mean)
	b = appendF64(b, ci.Half)
	b = appendF64(b, ci.Level)
	return binary.AppendVarint(b, int64(ci.N))
}

func appendCellResult(b []byte, c *CellResult) []byte {
	b = appendStr(b, c.Benchmark)
	b = appendStr(b, c.Processor)
	b = appendConfig(b, &c.Config)
	b = appendStr(b, c.Suite)
	b = appendStr(b, c.Group)
	b = binary.AppendVarint(b, int64(c.Runs))
	for _, v := range [...]float64{c.Seconds, c.Watts, c.EnergyJ, c.TimeCIRel, c.PowerCIRel} {
		b = appendF64(b, v)
	}
	b = appendBool(b, c.Full != nil)
	if c.Full == nil {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(c.Full.RunSamples)))
	for i := range c.Full.RunSamples {
		r := &c.Full.RunSamples[i]
		b = appendF64(b, r.Seconds)
		b = appendF64(b, r.Watts)
		b = appendCounters(b, &r.Counters)
	}
	b = appendCounters(b, &c.Full.Counters)
	b = appendCI(b, &c.Full.TimeCI)
	return appendCI(b, &c.Full.PowerCI)
}

// run drains measured cells until the channel closes, encoding each
// against its request cell in cells, then emits the terminal frame: the
// batch's error if errFn reports one, the done frame, counting every
// cell frame the writer sent, otherwise. The terminal frame is written
// but not flushed: it leaves with the end of the chunked body when the
// handler returns, so the client reads the end of the stream with it
// and its connection stays reusable. keepAlive <= 0 selects the default
// heartbeat.
func (sw *streamWriter) run(items <-chan streamItem, cells []harness.Job, full bool, keepAlive time.Duration, errFn func() error) error {
	if keepAlive <= 0 {
		keepAlive = defaultStreamKeepAlive
	}
	t := time.NewTimer(keepAlive)
	defer t.Stop()
	for items != nil {
		select {
		case it, ok := <-items:
			if !ok {
				items = nil
				continue
			}
			if err := sw.sendCell(it.index, cells[it.index], it.m, full); err != nil {
				return err
			}
			// Opportunistic flush: only when no further cell is ready,
			// so a hot backend coalesces many frames per flush.
			if len(items) == 0 {
				if err := sw.flush(); err != nil {
					return err
				}
			}
			if !t.Stop() {
				<-t.C
			}
			t.Reset(keepAlive)
		case <-t.C:
			if err := sw.send(&StreamEvent{KeepAlive: true}); err != nil {
				return err
			}
			if err := sw.flush(); err != nil {
				return err
			}
			t.Reset(keepAlive)
		}
	}
	// A failed send is sticky, so writeOut reports it.
	if err := errFn(); err != nil {
		_ = sw.send(&StreamEvent{Error: err.Error()})
		return sw.writeOut()
	}
	_ = sw.send(&StreamEvent{Done: &StreamDone{Cells: sw.cells}})
	return sw.writeOut()
}

// defaultStreamKeepAlive is the heartbeat cadence when Options leaves
// StreamKeepAlive unset: frequent enough that a client waiting on a
// cold JVM row sees liveness, rare enough to be invisible in traffic.
const defaultStreamKeepAlive = 5 * time.Second
