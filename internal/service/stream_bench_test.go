package service

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
)

// The stream-layer benchmarks run over real study cells: every cell of
// the seed-42 45x61 grid at full detail, in grid order — 1,215
// three-run, 495 five-run and 1,035 twenty-run cells. One op is one
// cell; run with a -benchtime that is a multiple of 2,745 so every run
// covers that mix evenly:
//
//	go test -run '^$' -bench 'BenchmarkStream(Encode|Decode)' -benchtime 27450x -benchmem ./internal/service
//
// wire-B/cell is the encoded stream size per cell.
type grid struct {
	cells []harness.Job
	ms    []*harness.Measurement
}

var studyGrid = sync.OnceValues(func() (*grid, error) {
	h, err := harness.New(42)
	if err != nil {
		return nil, err
	}
	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	ms, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		return nil, err
	}
	return &grid{cells: jobs, ms: ms}, nil
})

func benchGrid(b *testing.B) *grid {
	b.Helper()
	g, err := studyGrid()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkStreamEncode encodes cell frames the way a backend does:
// from the cached measurement, indexes running as in a 16-cell lease.
func BenchmarkStreamEncode(b *testing.B) {
	g := benchGrid(b)
	var w countingWriter
	sw := newStreamWriter(&w, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(g.cells)
		if err := sw.sendCell(i%16, g.cells[k], g.ms[k], true); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(w.n)/float64(b.N), "wire-B/cell")
}

var decodedEvent *StreamEvent

// BenchmarkStreamDecode decodes the whole grid's stream with one
// decoder, Reset at the end of each pass, as a scheduler's pooled
// decoders are across leases.
func BenchmarkStreamDecode(b *testing.B) {
	g := benchGrid(b)
	var buf bytes.Buffer
	sw := newStreamWriter(&buf, nil)
	if err := sw.send(&StreamEvent{Header: &StreamHeader{Seed: 42, Cells: len(g.cells)}}); err != nil {
		b.Fatal(err)
	}
	for k := range g.cells {
		if err := sw.sendCell(k%16, g.cells[k], g.ms[k], true); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.send(&StreamEvent{Done: &StreamDone{Cells: len(g.cells)}}); err != nil {
		b.Fatal(err)
	}
	if err := sw.flush(); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	rd := bytes.NewReader(stream)
	b.ReportAllocs()
	b.ResetTimer()
	dec := NewStreamDecoder(rd)
	for i := 0; i < b.N; {
		ev, err := dec.Next()
		if err == io.EOF {
			rd.Reset(stream)
			dec.Reset(rd)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		if ev.Cell != nil {
			decodedEvent = ev
			i++
		}
	}
	b.ReportMetric(float64(len(stream))/float64(len(g.cells)), "wire-B/cell")
}
