package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestLintCleanRegistryOutput is the contract between the histogram
// writer and the linter: whatever WritePrometheus renders must lint
// clean, labeled and unlabeled families alike, empty and populated.
func TestLintCleanRegistryOutput(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_plain_seconds", "Plain histogram.")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 3 * time.Millisecond, time.Second} {
		h.Observe(d)
	}
	a := reg.LabeledHistogram("test_labeled_seconds", "Labeled histogram.", "backend", "a")
	b := reg.LabeledHistogram("test_labeled_seconds", "Labeled histogram.", "backend", "b")
	a.Observe(5 * time.Millisecond)
	b.Observe(50 * time.Millisecond)
	b.Observe(0) // zero-duration edge bucket
	reg.Histogram("test_empty_seconds", "Never observed.")

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if problems := LintPrometheus(buf.String()); len(problems) != 0 {
		t.Fatalf("registry output fails its own lint:\n%s\n--- exposition ---\n%s",
			strings.Join(problems, "\n"), buf.String())
	}
}

// TestLintCatchesMalformedExposition feeds the linter known-bad text
// and requires a complaint for each defect class it exists to catch.
func TestLintCatchesMalformedExposition(t *testing.T) {
	cases := []struct {
		name, text, wantSubstr string
	}{
		{
			"missing help",
			"# TYPE x_total counter\nx_total 1\n",
			"no # HELP",
		},
		{
			"missing type",
			"# HELP x_total Things.\nx_total 1\n",
			"no # TYPE",
		},
		{
			"duplicate family",
			"# HELP x_total Things.\n# TYPE x_total counter\nx_total 1\n# HELP x_total Things.\n# TYPE x_total counter\nx_total 2\n",
			"duplicate",
		},
		{
			"non-cumulative buckets",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="0.1"} 5` + "\n" +
				`h_seconds_bucket{le="1"} 3` + "\n" +
				`h_seconds_bucket{le="+Inf"} 3` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 3\n",
			"not cumulative",
		},
		{
			"non-monotone bounds",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="1"} 1` + "\n" +
				`h_seconds_bucket{le="0.5"} 2` + "\n" +
				`h_seconds_bucket{le="+Inf"} 2` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 2\n",
			"not strictly increasing",
		},
		{
			"missing +Inf",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="1"} 1` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 1\n",
			"missing +Inf",
		},
		{
			"+Inf disagrees with _count",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				`h_seconds_bucket{le="+Inf"} 2` + "\n" +
				"h_seconds_sum 1\nh_seconds_count 3\n",
			"!= _count",
		},
		{
			"garbage line",
			"# HELP x X.\n# TYPE x gauge\nx one.two\n",
			"unparseable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := LintPrometheus(tc.text)
			for _, p := range problems {
				if strings.Contains(p, tc.wantSubstr) {
					return
				}
			}
			t.Fatalf("lint missed %q; got %v", tc.wantSubstr, problems)
		})
	}
}

// TestLintAcceptsWellFormedHandwritten guards against the linter
// rejecting legal exposition it did not itself generate.
func TestLintAcceptsWellFormedHandwritten(t *testing.T) {
	text := "# HELP app_requests_total Requests served.\n" +
		"# TYPE app_requests_total counter\n" +
		`app_requests_total{endpoint="measure",code="200"} 17` + "\n" +
		"# HELP app_up Whether the app is up.\n" +
		"# TYPE app_up gauge\n" +
		"app_up 1\n"
	if problems := LintPrometheus(text); len(problems) != 0 {
		t.Fatalf("false positives: %v", problems)
	}
}

// TestLintJudgesWhatTheParserReads pins the linter to the parser's
// reading of a page: a label value ending in a backslash is legal
// exposition the parser reads back, so its histogram lints clean; a
// sample of a family the page never declares lints as untyped, while a
// declared untyped family does not.
func TestLintJudgesWhatTheParserReads(t *testing.T) {
	reg := NewRegistry()
	h := reg.LabeledHistogram("h_seconds", "H.", "path", `a\`)
	h.Observe(time.Millisecond)
	h.ObserveWithExemplar(time.Second, TraceID(0xbeef))
	var b strings.Builder
	reg.WritePrometheus(&b)
	if problems := LintPrometheus(b.String()); len(problems) != 0 {
		t.Fatalf("backslash-valued histogram fails lint: %v\n%s", problems, b.String())
	}

	problems := LintPrometheus("undeclared_total 1\n")
	if !strings.Contains(strings.Join(problems, "\n"), "no # TYPE") {
		t.Fatalf("undeclared family: got %v, want a no # TYPE problem", problems)
	}
	if problems := LintPrometheus("# HELP u U.\n# TYPE u untyped\nu 1\n"); len(problems) != 0 {
		t.Fatalf("declared untyped family: %v", problems)
	}
}
