package telemetry

// Span records, the one export format. The Chrome trace format
// (chrome.go) rebases every timestamp onto a per-export origin, which
// is exactly wrong for fleet assembly: a monitor stitching spans
// harvested from several backends needs absolute wall-clock starts and
// stable 64-bit ids. WriteSpans emits the lossless form — a JSON array
// of SpanData — served at /v1/traces and consumed by the monitor's
// harvester (internal/traceanalytics); Chrome is a render of the same
// records for fullstudy -trace-out.

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// Attr returns the value of the first attribute named key, or "".
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// WriteSpans renders spans as a JSON array of raw span records with
// absolute timestamps, sorted by start time (ties broken by span id)
// so repeated exports of the same retention are byte-identical.
func WriteSpans(w io.Writer, spans []SpanData) error {
	sorted := make([]SpanData, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		if !sorted[i].Start.Equal(sorted[j].Start) {
			return sorted[i].Start.Before(sorted[j].Start)
		}
		return sorted[i].ID < sorted[j].ID
	})
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, d := range sorted {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(d)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSpans exports the tracer's retention (or, with trace != 0, one
// trace) in raw span form. Nil tracers export an empty array.
func (t *Tracer) WriteSpans(w io.Writer, trace TraceID) error {
	var spans []SpanData
	if t != nil {
		if trace != 0 {
			spans = t.TraceSpans(trace)
		} else {
			spans = t.Snapshot()
		}
	}
	return WriteSpans(w, spans)
}
