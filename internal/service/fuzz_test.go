package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzConfigParse drives the measure-request decoder with arbitrary
// bodies, JSON and request frames: it must never panic, and anything it
// accepts must be well-formed — resolved cells in request order, each
// with a stable cache key, and stable under a round trip through either
// codec.
func FuzzConfigParse(f *testing.F) {
	f.Add(`{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`)
	f.Add(`{"seed":7,"cells":[{"benchmark":"jess","processor":"i5 (32)","config":{"cores":2,"smt":2,"clock_ghz":1.2,"turbo":false}}]}`)
	f.Add(`{"cells":[{"benchmark":"vips","processor":"Atom (45)","config":{"cores":1,"smt":1,"clock_ghz":1e999,"turbo":true}}]}`)
	f.Add(`{"cells":[]}`)
	f.Add(`{"cellz":[]}`)
	f.Add(`{"cells":[{}]} trailing`)
	f.Add(`[1,2,3]`)
	f.Add(`"just a string"`)
	f.Add("\x00\xff{")
	f.Add(`{"seed":-9223372036854775808,"cells":[{"benchmark":"db","processor":"Pentium4 (130)"}]}`)
	f.Add(string(AppendMeasureRequest(nil, leaseRequest(16))))
	for _, body := range badRequestFrames() {
		f.Add(string(body))
	}

	f.Fuzz(func(t *testing.T, body string) {
		req, cells, err := DecodeMeasureRequest(strings.NewReader(body))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if req == nil || len(cells) == 0 || len(cells) > MaxCells {
			t.Fatalf("accepted request resolved to %d cells", len(cells))
		}
		if len(cells) != len(req.Cells) {
			t.Fatalf("%d cells resolved from %d requested", len(cells), len(req.Cells))
		}
		seed := int64(42)
		if req.Seed != nil {
			seed = *req.Seed
		}
		for i, c := range cells {
			if c.Bench == nil || c.CP.Proc == nil {
				t.Fatalf("cell %d resolved with nil benchmark or processor", i)
			}
			if c.Bench.Name != req.Cells[i].Benchmark || c.CP.Proc.Name != req.Cells[i].Processor {
				t.Fatalf("cell %d out of order: %s/%s vs %s/%s",
					i, c.Bench.Name, c.CP.Proc.Name, req.Cells[i].Benchmark, req.Cells[i].Processor)
			}
			if err := c.CP.Proc.Validate(c.CP.Config); err != nil {
				t.Fatalf("cell %d accepted with invalid config: %v", i, err)
			}
			if cellKey(seed, c) != cellKey(seed, c) {
				t.Fatalf("cell %d cache key unstable", i)
			}
		}

		// Round trip: re-encoding an accepted request in either codec and
		// decoding again must accept and resolve to the same cells.
		js, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode accepted request: %v", err)
		}
		for _, reenc := range [][]byte{js, AppendMeasureRequest(nil, req)} {
			_, cells2, err := DecodeMeasureRequest(bytes.NewReader(reenc))
			if err != nil {
				t.Fatalf("round-tripped request rejected: %v (body %q)", err, reenc)
			}
			if len(cells2) != len(cells) {
				t.Fatalf("round trip resolved %d cells, want %d", len(cells2), len(cells))
			}
			for i := range cells {
				if cellKey(seed, cells[i]) != cellKey(seed, cells2[i]) {
					t.Fatalf("round trip changed cell %d key", i)
				}
			}
		}
	})
}
