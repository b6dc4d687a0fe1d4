package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/counters"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MaxCells bounds one measure request to two full study grids: enough to
// regenerate the whole dataset in one call, small enough that a single
// request cannot queue unbounded work.
const MaxCells = 2 * 45 * 61

// ConfigJSON is the wire form of a BIOS-style hardware configuration:
// proc.Config's fields in its order, so the two convert directly.
type ConfigJSON struct {
	Cores    int     `json:"cores"`
	SMTWays  int     `json:"smt"`
	ClockGHz float64 `json:"clock_ghz"`
	Turbo    bool    `json:"turbo"`
}

// CellRequest names one measurement cell. A nil Config selects the
// processor's stock configuration.
type CellRequest struct {
	Benchmark string      `json:"benchmark"`
	Processor string      `json:"processor"`
	Config    *ConfigJSON `json:"config,omitempty"`
}

// MeasureRequest is the POST /v1/measure body: a batch of cells measured
// under one study seed. A nil Seed selects the daemon's seed. Detail
// selects the response shape: "" or "summary" returns the aggregated
// outputs only; "full" additionally returns every run sample, the mean
// counters, and both confidence intervals — enough for a client to
// reconstruct the harness Measurement bit-identically. Lane selects the
// worker-pool priority class: "" or "interactive" for ad-hoc requests,
// "bulk" for study traffic that must yield to interactive callers.
type MeasureRequest struct {
	Seed   *int64        `json:"seed,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Lane   string        `json:"lane,omitempty"`
	Cells  []CellRequest `json:"cells"`
}

// DetailFull requests the reconstruction-grade response shape.
const DetailFull = "full"

// Wire lane names. The scheduler marks its study traffic LaneBulk so a
// human poking one cell preempts a five-thousand-cell study at the
// backend's dequeue point.
const (
	LaneInteractive = "interactive"
	LaneBulk        = "bulk"
)

// CellResult is one measured cell as served to clients: the request
// identity echoed back (with the resolved configuration) plus the
// aggregated methodology outputs. Field order is fixed, so two servers
// answering the same request produce byte-identical JSON. Full is only
// populated for detail=full requests. The measure stream carries every
// float64 as its raw IEEE-754 bits (stream.go), so the values a
// streaming client decodes are bit-identical to the ones the backend
// measured.
type CellResult struct {
	Benchmark  string      `json:"benchmark"`
	Processor  string      `json:"processor"`
	Config     ConfigJSON  `json:"config"`
	Suite      string      `json:"suite"`
	Group      string      `json:"group"`
	Runs       int         `json:"runs"`
	Seconds    float64     `json:"seconds"`
	Watts      float64     `json:"watts"`
	EnergyJ    float64     `json:"energy_j"`
	TimeCIRel  float64     `json:"time_ci_rel"`
	PowerCIRel float64     `json:"power_ci_rel"`
	Full       *CellDetail `json:"full,omitempty"`
}

// CellDetail is the reconstruction-grade tail of a full-detail cell: the
// complete methodology output beyond the summary fields.
type CellDetail struct {
	RunSamples []RunJSON    `json:"run_samples"`
	Counters   CountersJSON `json:"counters"`
	TimeCI     CIJSON       `json:"time_ci"`
	PowerCI    CIJSON       `json:"power_ci"`
}

// RunJSON is one measured invocation on the wire.
type RunJSON struct {
	Seconds  float64      `json:"seconds"`
	Watts    float64      `json:"watts"`
	Counters CountersJSON `json:"counters"`
}

// CountersJSON is the wire form of the architectural event counters.
type CountersJSON struct {
	Cycles              float64 `json:"cycles"`
	Instructions        float64 `json:"instructions"`
	AppInstructions     float64 `json:"app_instructions"`
	ServiceInstructions float64 `json:"service_instructions"`
	LLCMisses           float64 `json:"llc_misses"`
	DTLBMisses          float64 `json:"dtlb_misses"`
	BranchInstructions  float64 `json:"branch_instructions"`
}

// CIJSON is the wire form of a confidence interval.
type CIJSON struct {
	Mean  float64 `json:"mean"`
	Half  float64 `json:"half"`
	Level float64 `json:"level"`
	N     int     `json:"n"`
}

// MeasureResponse is the POST /v1/measure reply, cells in request order.
type MeasureResponse struct {
	Seed  int64        `json:"seed"`
	Cells []CellResult `json:"cells"`
}

// DecodeMeasureRequest strictly parses and validates a measure request
// body, JSON or one request frame (stream.go), picking the codec from
// the body's first byte rather than from a header, so a recorded body
// replays as it was sent. Unknown JSON fields, malformed frames and
// anything after the body are rejected, every cell must name a known
// benchmark and processor, and explicit configurations must pass the
// part's BIOS validation. It never panics on arbitrary input (fuzzed by
// FuzzConfigParse).
func DecodeMeasureRequest(r io.Reader) (*MeasureRequest, []harness.Job, error) {
	br := requestReaders.Get().(*bufio.Reader)
	br.Reset(r)
	req, err := readMeasureRequest(br)
	br.Reset(nil)
	requestReaders.Put(br)
	if err != nil {
		return nil, nil, err
	}
	switch req.Detail {
	case "", "summary", DetailFull:
	default:
		return nil, nil, fmt.Errorf("service: unknown detail %q (want summary or full)", req.Detail)
	}
	switch req.Lane {
	case "", LaneInteractive, LaneBulk:
	default:
		return nil, nil, fmt.Errorf("service: unknown lane %q (want interactive or bulk)", req.Lane)
	}
	cells, err := resolveCells(req.Cells)
	if err != nil {
		return nil, nil, err
	}
	return req, cells, nil
}

// requestReaders recycles the buffered readers request bodies are read
// through. Each keeps only bufio's default 4 KiB, which holds a lease's
// whole request frame; a larger frame is read into a buffer of its own
// that the pool never keeps.
var requestReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

var errTrailingData = errors.New("service: trailing data after request body")

// readMeasureRequest reads one whole request body in the codec its
// first byte names.
func readMeasureRequest(br *bufio.Reader) (*MeasureRequest, error) {
	if b, _ := br.Peek(1); len(b) == 1 && b[0] == frameRequest {
		return readRequestFrame(br)
	}
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	req := new(MeasureRequest)
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("service: decode request: %w", err)
	}
	// A second document in the body is as malformed as a bad first one.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errTrailingData
	}
	return req, nil
}

// readRequestFrame reads a body that is one request frame. The declared
// length is checked against MaxStreamFrameBytes before any payload byte
// is read, a body that ends inside the frame is truncated, and any byte
// after it is trailing data.
func readRequestFrame(br *bufio.Reader) (*MeasureRequest, error) {
	_, _ = br.ReadByte() // the kind byte, already peeked
	n, err := binary.ReadUvarint(br)
	switch {
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	case err == nil && n > MaxStreamFrameBytes:
		err = ErrStreamFrameTooLong
	}
	if err != nil {
		return nil, fmt.Errorf("service: decode request frame: %w", err)
	}
	var p []byte
	peeked := n <= uint64(br.Size())
	if peeked {
		p, err = br.Peek(int(n))
	} else {
		// Grown as bytes arrive, so a declared length the body does
		// not deliver cannot force a buffer of that size.
		var b bytes.Buffer
		_, err = io.CopyN(&b, br, int64(n))
		p = b.Bytes()
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("service: decode request frame: %w", err)
	}
	req, err := decodeRequestFrame(p)
	if err != nil {
		return nil, err
	}
	if peeked {
		_, _ = br.Discard(len(p)) // the decoded request does not alias p
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errTrailingData
	}
	return req, nil
}

// minCellFrameBytes is the smallest cell a request frame can hold: two
// empty names and an absent configuration.
const minCellFrameBytes = 3

// decodeRequestFrame decodes a request frame's payload, every byte of
// which must be consumed, without validating what it names. Names
// resolve against the per-process index (names), and the detail and
// lane against their vocabulary, so a lease decodes without a string
// allocation; the configurations share one backing array.
func decodeRequestFrame(p []byte) (*MeasureRequest, error) {
	fr := frameReader{b: p}
	st := new(struct {
		req  MeasureRequest
		seed int64
	}) // the request and the seed it points at, in one allocation
	req := &st.req
	if fr.bool() {
		st.seed = fr.varint()
		req.Seed = &st.seed
	}
	req.Detail = requestWord(fr.strBytes())
	req.Lane = requestWord(fr.strBytes())
	// The count is checked against the request bound and the bytes
	// present before the slices are sized from it, so a forged count
	// cannot force a large allocation.
	// A failed read leaves no bytes and a zero count.
	n := fr.uvarint()
	if n > MaxCells {
		return nil, errTooManyCells(n)
	}
	if n > uint64(fr.remaining()/minCellFrameBytes) {
		return nil, fmt.Errorf("service: decode request frame: %d cells exceed the frame", n)
	}
	ix := names()
	req.Cells = make([]CellRequest, n)
	var cfgs []ConfigJSON
	for i := range req.Cells {
		c := &req.Cells[i]
		c.Benchmark = ix.benchName(fr.strBytes())
		c.Processor = ix.procName(fr.strBytes())
		if !fr.bool() {
			continue
		}
		if cfgs == nil {
			cfgs = make([]ConfigJSON, 0, len(req.Cells)-i)
		}
		cfgs = append(cfgs, fr.config())
		c.Config = &cfgs[len(cfgs)-1]
	}
	if fr.err != nil {
		return nil, fmt.Errorf("service: decode request frame: %w", fr.err)
	}
	if fr.off != len(p) {
		return nil, fmt.Errorf("service: request frame has %d trailing bytes", len(p)-fr.off)
	}
	return req, nil
}

// requestWord returns b as the detail or lane value it spells without
// allocating, and any other value as a fresh string for the validation
// to reject.
func requestWord(b []byte) string {
	for _, w := range [...]string{"summary", DetailFull, LaneInteractive, LaneBulk} {
		if string(b) == w {
			return w
		}
	}
	return string(b)
}

// AppendMeasureRequest appends req to b as one request frame, the
// binary body DecodeMeasureRequest reads alongside JSON, and returns
// the extended slice. It allocates only to grow b.
func AppendMeasureRequest(b []byte, req *MeasureRequest) []byte {
	at := len(b)
	b = append(b, make([]byte, frameRoom)...)
	b = appendBool(b, req.Seed != nil)
	if req.Seed != nil {
		b = binary.AppendVarint(b, *req.Seed)
	}
	b = appendStr(b, req.Detail)
	b = appendStr(b, req.Lane)
	b = binary.AppendUvarint(b, uint64(len(req.Cells)))
	for i := range req.Cells {
		c := &req.Cells[i]
		b = appendStr(b, c.Benchmark)
		b = appendStr(b, c.Processor)
		b = appendBool(b, c.Config != nil)
		if c.Config != nil {
			b = appendConfig(b, c.Config)
		}
	}
	// Slide the frame down over the unused part of the reserved room.
	return append(b[:at], b[putFrameHeader(b, at, frameRequest):]...)
}

// nameIndex maps benchmark and processor names to one shared instance
// each. workload.All and proc.Fleet hand out fresh mutation-isolated
// copies on every call; nothing downstream of a resolved cell writes
// through its Benchmark or Processor (both types have read-only methods
// only), so one index built per process serves every request.
type nameIndex struct {
	benches map[string]*workload.Benchmark
	procs   map[string]*proc.Processor
}

// benchName returns the benchmark name b spells as the index's own
// string, which costs no allocation, or an unknown one as a fresh
// string for the caller's checks to reject.
func (ix *nameIndex) benchName(b []byte) string {
	if bm, ok := ix.benches[string(b)]; ok {
		return bm.Name
	}
	return string(b)
}

// procName is benchName for processor names.
func (ix *nameIndex) procName(b []byte) string {
	if p, ok := ix.procs[string(b)]; ok {
		return p.Name
	}
	return string(b)
}

var names = sync.OnceValue(func() *nameIndex {
	benches := workload.All()
	fleet := proc.Fleet()
	ix := &nameIndex{
		benches: make(map[string]*workload.Benchmark, len(benches)),
		procs:   make(map[string]*proc.Processor, len(fleet)),
	}
	for _, b := range benches {
		ix.benches[b.Name] = b
	}
	for _, p := range fleet {
		ix.procs[p.Name] = p
	}
	return ix
})

// resolveCells validates request cells against the fleet and workload.
func resolveCells(reqs []CellRequest) ([]harness.Job, error) {
	if len(reqs) == 0 {
		return nil, errors.New("service: request names no cells")
	}
	if len(reqs) > MaxCells {
		return nil, errTooManyCells(uint64(len(reqs)))
	}
	ix := names()
	cells := make([]harness.Job, 0, len(reqs))
	for i, cr := range reqs {
		b, ok := ix.benches[cr.Benchmark]
		if !ok {
			return nil, fmt.Errorf("service: cell %d: workload: unknown benchmark %q", i, cr.Benchmark)
		}
		p, ok := ix.procs[cr.Processor]
		if !ok {
			return nil, fmt.Errorf("service: cell %d: proc: unknown processor %q", i, cr.Processor)
		}
		cfg := p.Stock()
		if cr.Config != nil {
			cfg = proc.Config(*cr.Config)
			if err := p.Validate(cfg); err != nil {
				return nil, fmt.Errorf("service: cell %d: %w", i, err)
			}
		}
		cells = append(cells, harness.Job{Bench: b, CP: proc.ConfiguredProcessor{Proc: p, Config: cfg}})
	}
	return cells, nil
}

func errTooManyCells(n uint64) error {
	return fmt.Errorf("service: %d cells exceeds the %d-cell request bound", n, MaxCells)
}

// cellKey is the cache key of one cell: "m|" and the determinism tuple
// (harness.AppendKey), one allocation.
func cellKey(seed int64, j harness.Job) string {
	var buf [64]byte
	return string(harness.AppendKey(append(buf[:0], 'm', '|'), seed, j.Cell()))
}

// ConfigToJSON converts a configuration to the wire form.
func ConfigToJSON(cfg proc.Config) ConfigJSON { return ConfigJSON(cfg) }

// CountersToJSON converts counters to the wire form.
func CountersToJSON(c counters.Counters) CountersJSON {
	return CountersJSON{
		Cycles:              c.Cycles,
		Instructions:        c.Instructions,
		AppInstructions:     c.AppInstructions,
		ServiceInstructions: c.ServiceInstructions,
		LLCMisses:           c.LLCMisses,
		DTLBMisses:          c.DTLBMisses,
		BranchInstructions:  c.BranchInstructions,
	}
}

// Counters converts the wire form back to counters.
func (c CountersJSON) Counters() counters.Counters {
	return counters.Counters{
		Cycles:              c.Cycles,
		Instructions:        c.Instructions,
		AppInstructions:     c.AppInstructions,
		ServiceInstructions: c.ServiceInstructions,
		LLCMisses:           c.LLCMisses,
		DTLBMisses:          c.DTLBMisses,
		BranchInstructions:  c.BranchInstructions,
	}
}

// CIToJSON converts a confidence interval to the wire form.
func CIToJSON(ci stats.CI) CIJSON {
	return CIJSON{Mean: ci.Mean, Half: ci.Half, Level: ci.Level, N: ci.N}
}

// CI converts the wire form back to a confidence interval.
func (c CIJSON) CI() stats.CI {
	return stats.CI{Mean: c.Mean, Half: c.Half, Level: c.Level, N: c.N}
}
