package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanParentLinksAndRing(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.StartSpan(context.Background(), "root", String("kind", "test"))
	if root.Trace() == 0 || root.ID() == 0 {
		t.Fatal("root span has zero ids")
	}
	_, child := tr.StartSpan(ctx, "child")
	if child.Trace() != root.Trace() {
		t.Fatal("child did not inherit trace id")
	}
	child.Annotate(Int("n", 3))
	child.End()
	root.End()
	root.End() // idempotent

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[0].Parent != root.ID() {
		t.Fatalf("child span malformed: %+v", spans[0])
	}
	got := tr.TraceSpans(root.Trace())
	if len(got) != 2 {
		t.Fatalf("TraceSpans returned %d spans, want 2", len(got))
	}
}

func TestRingBufferBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		_, s := tr.StartSpan(context.Background(), "s")
		s.End()
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Fatalf("ring holds %d spans, want 4", got)
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "noop")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer polluted the context")
	}
	s.Annotate(String("k", "v")) // all nil-safe
	s.End()
	if s.Trace() != 0 || s.ID() != 0 {
		t.Fatal("nil span has nonzero ids")
	}
}

func TestHeaderPropagation(t *testing.T) {
	tr := NewTracer(8)
	ctx, s := tr.StartSpan(context.Background(), "client")
	h := http.Header{}
	InjectHeaders(ctx, h)
	trace, parent, ok := ExtractHeaders(h)
	if !ok || trace != s.Trace() || parent != s.ID() {
		t.Fatalf("round trip: got (%v %v %v), want (%v %v true)", trace, parent, ok, s.Trace(), s.ID())
	}

	// Server side: StartRemote stitches into the caller's trace.
	srv := NewTracer(8)
	_, remote := srv.StartRemote(context.Background(), trace, parent, "server")
	if remote.Trace() != s.Trace() {
		t.Fatal("remote span did not adopt the propagated trace id")
	}
	remote.End()
	if got := srv.TraceSpans(s.Trace()); len(got) != 1 || got[0].Parent != s.ID() {
		t.Fatalf("remote span not stitched: %+v", got)
	}

	if _, _, ok := ExtractHeaders(http.Header{}); ok {
		t.Fatal("empty headers extracted as valid")
	}
	bad := http.Header{}
	bad.Set(HeaderTraceID, "not-hex")
	if _, _, ok := ExtractHeaders(bad); ok {
		t.Fatal("malformed trace id extracted as valid")
	}
}

// TestTracerConcurrent runs parallel span producers against snapshot
// readers under -race, once keeping every span and once under a tail
// policy with the reader pinning and unpinning the producers' traces.
func TestTracerConcurrent(t *testing.T) {
	for _, policy := range []*TailPolicy{nil, {SampleRate: 0.5, KeepErrors: true}} {
		tr := NewTracer(256)
		tr.SetTailPolicy(policy)
		const producers, per = 8, 500
		roots := make(chan TraceID, producers)
		stop := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			var pinned []TraceID
			for {
				select {
				case <-stop:
					for _, id := range pinned {
						tr.Unpin(id)
					}
					return
				case id := <-roots:
					tr.Pin(id)
					pinned = append(pinned, id)
				default:
					tr.Snapshot()
					if len(pinned) > 0 {
						tr.Unpin(pinned[0])
						pinned = pinned[1:]
					}
				}
			}
		}()
		ids := make(chan SpanID, producers*per)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, root := tr.StartSpan(context.Background(), "root")
				defer root.End()
				roots <- root.Trace()
				for i := 0; i < per; i++ {
					_, s := tr.StartSpan(ctx, "work")
					ids <- s.ID()
					s.End()
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-readerDone
		close(ids)
		seen := make(map[SpanID]bool)
		for id := range ids {
			if seen[id] {
				t.Fatal("duplicate span id under concurrency")
			}
			seen[id] = true
		}
		if n := tr.PinnedTraces(); n != 0 {
			t.Fatalf("%d traces still pinned after every Unpin", n)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartSpan(context.Background(), "batch", Int("jobs", 2))
	_, c := tr.StartSpan(ctx, "cell")
	time.Sleep(time.Millisecond)
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event phase %v, want X", ev["ph"])
		}
		args := ev["args"].(map[string]any)
		if args["trace_id"] != root.Trace().String() {
			t.Errorf("event trace_id %v, want %v", args["trace_id"], root.Trace())
		}
	}

	// Single-trace filter excludes other traces.
	_, other := tr.StartSpan(context.Background(), "other")
	other.End()
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf, root.Trace()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "other") {
		t.Fatal("trace filter leaked spans from another trace")
	}
}

func TestLoggerCarriesSubsystemAndTraceID(t *testing.T) {
	var buf bytes.Buffer
	SetLogOutput(&buf)
	defer SetLogOutput(os.Stderr)

	tr := NewTracer(8)
	ctx, s := tr.StartSpan(context.Background(), "req")
	lg := Logger("testsys")
	lg.InfoContext(ctx, "hello", slog.Int("n", 7))
	s.End()

	line := buf.String()
	for _, want := range []string{"subsystem=testsys", "msg=hello", "n=7", "trace_id=" + s.Trace().String()} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
}
