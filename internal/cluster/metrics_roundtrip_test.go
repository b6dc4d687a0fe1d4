package cluster

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestClusterMetricsRoundTrip is the exposition guard for the
// scheduler's metrics page: WriteMetrics must lint clean, parse, and
// survive render→parse with every family — including the per-backend
// breaker_state samples, whose URL label values exercise the escaping
// path — intact.
func TestClusterMetricsRoundTrip(t *testing.T) {
	ts := newBackend(t, service.Options{Seed: 42})
	s, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MeasureBatch(context.Background(), stockJobs(t, 2), 0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	text := buf.String()
	if problems := telemetry.LintPrometheus(text); len(problems) != 0 {
		t.Fatalf("scheduler metrics lint problems: %v", problems)
	}
	fams, err := telemetry.ParsePrometheus(text)
	if err != nil {
		t.Fatalf("scheduler metrics do not parse: %v", err)
	}
	breaker := false
	for _, f := range fams {
		if f.Name == "powerperf_sched_breaker_state" {
			breaker = true
			if len(f.Samples) != 1 {
				t.Fatalf("breaker_state samples: %+v, want one per backend", f.Samples)
			}
			if v, ok := f.Samples[0].Label("backend"); !ok || v != ts.URL {
				t.Fatalf("breaker_state backend label %q, want %q", v, ts.URL)
			}
		}
	}
	if !breaker {
		t.Fatal("scheduler metrics missing powerperf_sched_breaker_state")
	}

	var rendered bytes.Buffer
	telemetry.RenderPrometheus(&rendered, fams)
	again, err := telemetry.ParsePrometheus(rendered.String())
	if err != nil {
		t.Fatalf("rendered scheduler metrics do not re-parse: %v", err)
	}
	if !reflect.DeepEqual(fams, again) {
		t.Fatal("scheduler metrics round-trip lost information")
	}
}
