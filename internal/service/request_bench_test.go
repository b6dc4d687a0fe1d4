package service

import (
	"bytes"
	"encoding/json"
	"testing"
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
