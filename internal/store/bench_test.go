package store

import (
	"context"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
)

// seed42Study is the seed-42 45x61 study as rows, measured once per
// test binary.
var seed42Study = sync.OnceValues(func() ([]Row, error) {
	h, err := harness.New(42)
	if err != nil {
		return nil, err
	}
	ms, err := h.MeasureBatch(context.Background(), harness.GridJobs(proc.ConfigSpace(), nil), 0)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(ms))
	for i, m := range ms {
		rows[i] = RowFromMeasurement(m)
	}
	return rows, nil
})

// BenchmarkStoreCollect is Collect over a store holding two copies of
// the seed-42 45x61 study (5,490 rows, 2,745 distinct cells), the read
// the studies API and the powerperf query CLI make before aggregating
// or exporting.
func BenchmarkStoreCollect(b *testing.B) {
	rows, err := seed42Study()
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for sealed := int64(1); sealed <= 2; sealed++ {
		if _, err := s.Append(&Study{Seed: 42, SealedUnixNano: sealed, Rows: rows}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Collect(Query{})
		if err != nil {
			b.Fatal(err)
		}
		if d.Cells() != len(rows) {
			b.Fatalf("collected %d cells, want %d", d.Cells(), len(rows))
		}
	}
}
