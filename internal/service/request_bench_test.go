package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
)

// BenchmarkDecodeMeasureRequest decodes the request of one 16-cell
// study lease, shaped as the scheduler sends it: explicit
// configurations, full detail, the bulk lane.
func BenchmarkDecodeMeasureRequest(b *testing.B) {
	seed := int64(42)
	req := MeasureRequest{Seed: &seed, Detail: DetailFull, Lane: LaneBulk}
	for _, j := range harness.GridJobs(proc.ConfigSpace(), nil)[:16] {
		cfg := configJSON(j.CP.Config)
		req.Cells = append(req.Cells, CellRequest{Benchmark: j.Bench.Name, Processor: j.CP.Proc.Name, Config: &cfg})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeMeasureRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
