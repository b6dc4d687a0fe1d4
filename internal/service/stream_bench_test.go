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
var studyCells = sync.OnceValues(func() ([]StreamCell, error) {
	h, err := harness.New(42)
	if err != nil {
		return nil, err
	}
	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	ms, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		return nil, err
	}
	cells := make([]StreamCell, len(jobs))
	for i, j := range jobs {
		// Indexes run as in a 16-cell lease.
		cells[i] = StreamCell{Index: i % 16, Result: *cellResult(cell{bench: j.Bench, cp: j.CP}, ms[i], true)}
	}
	return cells, nil
})

func benchCells(b *testing.B) []StreamCell {
	b.Helper()
	cells, err := studyCells()
	if err != nil {
		b.Fatal(err)
	}
	return cells
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkStreamEncode(b *testing.B) {
	cells := benchCells(b)
	var w countingWriter
	sw := newStreamWriter(&w, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.send(&StreamEvent{Cell: &cells[i%len(cells)]}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.n)/float64(b.N), "wire-B/cell")
}

var decodedEvent *StreamEvent

func BenchmarkStreamDecode(b *testing.B) {
	cells := benchCells(b)
	var buf bytes.Buffer
	sw := newStreamWriter(&buf, nil)
	evs := []*StreamEvent{{Header: &StreamHeader{Seed: 42, Cells: len(cells)}}}
	for i := range cells {
		evs = append(evs, &StreamEvent{Cell: &cells[i]})
	}
	evs = append(evs, &StreamEvent{Done: &StreamDone{Cells: len(cells)}})
	for _, ev := range evs {
		if err := sw.send(ev); err != nil {
			b.Fatal(err)
		}
	}
	stream := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	dec := NewStreamDecoder(bytes.NewReader(stream))
	for i := 0; i < b.N; {
		ev, err := dec.Next()
		if err == io.EOF {
			dec = NewStreamDecoder(bytes.NewReader(stream))
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
	b.ReportMetric(float64(len(stream))/float64(len(cells)), "wire-B/cell")
}
