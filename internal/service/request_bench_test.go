package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/harness"
)

// BenchmarkDecodeMeasureRequest decodes the request of one 16-cell
// study lease, shaped as the scheduler sends it (explicit
// configurations, full detail, the bulk lane), in both codecs.
func BenchmarkDecodeMeasureRequest(b *testing.B) {
	req := leaseRequest(16)
	js, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{{"json", js}, {"frame", AppendMeasureRequest(nil, req)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeMeasureRequest(bytes.NewReader(bc.body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeMeasureRequest is the decode benchmark's twin: the
// same lease request encoded as JSON (json.Marshal) and appended as a
// frame into a reused buffer.
func BenchmarkEncodeMeasureRequest(b *testing.B) {
	req := leaseRequest(16)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendMeasureRequest(buf[:0], req)
		}
	})
}

// BenchmarkCellKey is a warm lease's per-cell cache lookup: the cell's
// key rendered, then Cache.Resident for a cell the cache holds.
func BenchmarkCellKey(b *testing.B) {
	j := harness.GridJobs(nil, nil)[0]
	c := NewCache(16)
	m := new(harness.Measurement)
	if _, err := c.GetOrCompute(context.Background(), cellKey(42, j), func() (any, error) { return m, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v, ok := c.Resident(cellKey(42, j)); !ok || v != m {
			b.Fatal("cell not resident")
		}
	}
}
