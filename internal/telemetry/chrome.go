package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one Trace Event Format "complete" event, the schema
// chrome://tracing and Perfetto load directly — the same flame view
// `go tool trace` gives the runtime, here for the study pipeline.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds from the export origin
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  uint32            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders spans in the Chrome trace-event JSON format.
// Timestamps are microseconds relative to the earliest span; each trace
// renders as one row (tid derived from the trace id), so concurrent
// studies stay visually separate.
//
// It is a render of span records (spans.go) for chrome://tracing and
// Perfetto, written by fullstudy -trace-out; no served endpoint uses
// it. The export is incremental: events are marshaled one at a time
// into a buffered writer, so a full span ring never becomes one event
// slice or one monolithic buffer.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	if len(spans) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var origin int64
	for i, d := range spans {
		if ns := d.Start.UnixNano(); i == 0 || ns < origin {
			origin = ns
		}
	}
	// Stable start order keeps exports diffable and viewers fast. The
	// microsecond TS is a monotone function of Start, so ordering by
	// Start orders by TS exactly as the event-slice sort did.
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return spans[idx[i]].Start.UnixNano() < spans[idx[j]].Start.UnixNano()
	})

	bw := bufio.NewWriterSize(w, 32<<10)
	// One event struct and args map serve every span: encoding/json
	// renders map keys in sorted order, so reuse keeps output
	// deterministic.
	ev := chromeEvent{Cat: "powerperf", Ph: "X", PID: 1, Args: make(map[string]string, 8)}
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for n, i := range idx {
		d := &spans[i]
		clear(ev.Args)
		ev.Args["trace_id"] = d.Trace.String()
		ev.Args["span_id"] = d.ID.String()
		if d.Parent != 0 {
			ev.Args["parent_id"] = d.Parent.String()
		}
		for _, a := range d.Attrs {
			ev.Args[a.Key] = a.Value
		}
		ev.Name = d.Name
		ev.TS = float64(d.Start.UnixNano()-origin) / 1e3
		ev.Dur = float64(d.Dur.Nanoseconds()) / 1e3
		ev.TID = uint32(d.Trace)
		buf, err := json.Marshal(&ev)
		if err != nil {
			return fmt.Errorf("telemetry: chrome trace: %w", err)
		}
		if n > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(" "); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTrace exports the tracer's retained spans (all of them, or
// a single trace when trace != 0).
func (t *Tracer) WriteChromeTrace(w io.Writer, trace TraceID) error {
	var spans []SpanData
	if trace != 0 {
		spans = t.TraceSpans(trace)
	} else {
		spans = t.Snapshot()
	}
	return WriteChromeTrace(w, spans)
}
