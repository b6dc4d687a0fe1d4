package telemetry

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParsePrometheusBasic(t *testing.T) {
	page := `# HELP powerperfd_cache_hits_total Measure cells served from cache.
# TYPE powerperfd_cache_hits_total counter
powerperfd_cache_hits_total 42
# HELP powerperfd_cache_shard_entries Resident entries per shard.
# TYPE powerperfd_cache_shard_entries gauge
powerperfd_cache_shard_entries{shard="0"} 3
powerperfd_cache_shard_entries{shard="1"} 5
`
	fams, err := ParsePrometheus(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	if fams[0].Type != "counter" || fams[0].Samples[0].Value != 42 {
		t.Fatalf("counter family parsed wrong: %+v", fams[0])
	}
	g := fams[1]
	if g.Type != "gauge" || len(g.Samples) != 2 {
		t.Fatalf("gauge family parsed wrong: %+v", g)
	}
	if v, ok := g.Samples[1].Label("shard"); !ok || v != "1" {
		t.Fatalf("label lookup failed: %+v", g.Samples[1])
	}
	if p := g.Sample("powerperfd_cache_shard_entries", []Label{{"shard", "1"}}); p == nil || p.Value != 5 {
		t.Fatalf("Sample lookup failed: %+v", p)
	}
}

func TestParsePrometheusHistogramFamilies(t *testing.T) {
	reg := NewRegistry()
	h := reg.LabeledHistogram("x_seconds", "An x.", "backend", "http://a")
	h.Observe(3 * time.Millisecond)
	h.Observe(70 * time.Millisecond)
	var b strings.Builder
	reg.WritePrometheus(&b)

	fams, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families, want 1: %+v", len(fams), fams)
	}
	f := fams[0]
	if f.Name != "x_seconds" || f.Type != "histogram" {
		t.Fatalf("family = %q type %q", f.Name, f.Type)
	}
	// _bucket/_sum/_count samples must all attach to the base family.
	var buckets, sums, counts int
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			buckets++
			if le, ok := s.Label("le"); !ok || le == "" {
				t.Fatalf("bucket without le: %+v", s)
			}
		case strings.HasSuffix(s.Name, "_sum"):
			sums++
		case strings.HasSuffix(s.Name, "_count"):
			counts++
			if s.Value != 2 {
				t.Fatalf("count = %v, want 2", s.Value)
			}
		}
	}
	if buckets == 0 || sums != 1 || counts != 1 {
		t.Fatalf("buckets=%d sums=%d counts=%d", buckets, sums, counts)
	}
}

func TestParsePrometheusEscaping(t *testing.T) {
	page := "# HELP f A help with backslash \\\\ and\\nnewline.\n" +
		"# TYPE f gauge\n" +
		`f{path="C:\\dir\"quote\nline"} 1` + "\n"
	fams, err := ParsePrometheus(page)
	if err != nil {
		t.Fatal(err)
	}
	if want := "A help with backslash \\ and\nnewline."; fams[0].Help != want {
		t.Fatalf("help = %q, want %q", fams[0].Help, want)
	}
	v, _ := fams[0].Samples[0].Label("path")
	if want := "C:\\dir\"quote\nline"; v != want {
		t.Fatalf("label = %q, want %q", v, want)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, page := range []string{
		"metric",                      // no value
		"metric{a=\"b\" 1",            // unterminated labels
		"metric{a=b} 1",               // unquoted value
		"1metric 2",                   // bad name
		"metric nope",                 // bad value
		"# TYPE m wat\nm 1",           // unknown type
		"metric{=\"v\"} 1",            // empty label name
		`metric{a="v} 1`,              // unterminated quote
		"metric{a=\"v\\\"} 1",         // dangling escape at end of quote
		"# HELP 1bad text\n",          // invalid family name in HELP
		"# TYPE onlyname\nonlyname 1", // malformed type
		"# HELP m A.\n# TYPE m gauge\nm 1\n# HELP m A.\n",    // duplicate HELP
		"# HELP m A.\n# TYPE m gauge\nm 1\n# TYPE m gauge\n", // duplicate TYPE
	} {
		if _, err := ParsePrometheus(page); err == nil {
			t.Errorf("ParsePrometheus(%q) = nil error, want failure", page)
		}
	}
}

// TestRenderParseRoundTrip pins the core identity: parsing a rendered
// page reproduces the families exactly — order, labels, values.
func TestRenderParseRoundTrip(t *testing.T) {
	fams := []MetricFamily{
		{Name: "a_total", Help: "Counts a.", Type: "counter",
			Samples: []MetricPoint{{Name: "a_total", Value: 7}}},
		{Name: "weird", Help: "Help with \\ and\nnewline.", Type: "gauge",
			Samples: []MetricPoint{
				{Name: "weird", Labels: []Label{{"k", `va"l\ue` + "\n"}}, Value: 0.25},
				{Name: "weird", Labels: []Label{{"k", "plain"}, {"z", "2"}}, Value: -3},
			}},
		{Name: "h_seconds", Help: "A histogram.", Type: "histogram",
			Samples: []MetricPoint{
				{Name: "h_seconds_bucket", Labels: []Label{{"le", "0.001"}}, Value: 1},
				{Name: "h_seconds_bucket", Labels: []Label{{"le", "+Inf"}}, Value: 2},
				{Name: "h_seconds_sum", Value: 1.5},
				{Name: "h_seconds_count", Value: 2},
			}},
	}
	var b strings.Builder
	RenderPrometheus(&b, fams)
	got, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("parse of rendered page failed: %v\npage:\n%s", err, b.String())
	}
	if !reflect.DeepEqual(got, fams) {
		t.Fatalf("round trip mutated families:\n got %+v\nwant %+v\npage:\n%s", got, fams, b.String())
	}
}

// TestRegistryRoundTrip is the writer-side guard: the histogram
// registry's exposition page must parse, re-render, and re-parse to the
// identical families — including a label value that needs escaping.
func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("plain_seconds", "Unlabeled.").Observe(5 * time.Millisecond)
	h := reg.LabeledHistogram("lab_seconds", "Labeled.", "backend", `http://x"y\z`)
	h.Observe(time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var b strings.Builder
	reg.WritePrometheus(&b)
	if problems := LintPrometheus(b.String()); len(problems) != 0 {
		t.Fatalf("registry page not lint-clean: %v", problems)
	}
	first, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("parse: %v\npage:\n%s", err, b.String())
	}
	var r strings.Builder
	RenderPrometheus(&r, first)
	second, err := ParsePrometheus(r.String())
	if err != nil {
		t.Fatalf("reparse: %v\npage:\n%s", err, r.String())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("registry page not stable under parse/render:\nfirst %+v\nsecond %+v", first, second)
	}
	f := second[1]
	if f.Name != "plain_seconds" && second[0].Name != "plain_seconds" {
		t.Fatalf("plain family missing: %+v", second)
	}
	lab := second[0]
	if lab.Name != "lab_seconds" {
		lab = second[1]
	}
	if v, ok := lab.Samples[0].Label("backend"); !ok || v != `http://x"y\z` {
		t.Fatalf("escaped backend label did not survive: %+v", lab.Samples[0])
	}
}

func TestPromQuote(t *testing.T) {
	for in, want := range map[string]string{
		"plain":       `"plain"`,
		`ba\ck"slash`: `"ba\\ck\"slash"`,
		"new\nline":   `"new\nline"`,
		"tab\there":   "\"tab\there\"", // tabs pass through, unlike strconv.Quote
	} {
		if got := PromQuote(in); got != want {
			t.Errorf("PromQuote(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" {
		t.Fatal("BuildInfo GoVersion empty")
	}
	if b.Version == "" || b.Commit == "" {
		t.Fatalf("BuildInfo fields must never be empty: %+v", b)
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Fatalf("String() = %q missing go version", s)
	}
	tok := b.UserAgentToken()
	if !strings.HasPrefix(tok, "(") || !strings.HasSuffix(tok, ")") {
		t.Fatalf("UserAgentToken() = %q, want parenthesized token", tok)
	}
	if again := BuildInfo(); again != b {
		t.Fatalf("BuildInfo not stable: %+v vs %+v", again, b)
	}
}

func TestParsePrometheusExemplarsRoundTrip(t *testing.T) {
	page := `# HELP req_seconds Request latency.
# TYPE req_seconds histogram
req_seconds_bucket{le="0.25"} 3 # {trace_id="00000000deadbeef",endpoint="measure"} 0.21 1754640000.125
req_seconds_bucket{le="+Inf"} 4 # {trace_id="00000000cafef00d"} 1.5
req_seconds_sum 2.2
req_seconds_count 4
# HELP errs_total Errors.
# TYPE errs_total counter
errs_total 7 # {trace_id="0000000000000001"} 1
# EOF
`
	fams, err := ParsePrometheus(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	b0 := fams[0].Samples[0]
	if b0.Exemplar == nil {
		t.Fatalf("bucket lost its exemplar: %+v", b0)
	}
	if got := b0.Exemplar.TraceID(); got != "00000000deadbeef" {
		t.Fatalf("exemplar trace id = %q", got)
	}
	if b0.Exemplar.Value != 0.21 || !b0.Exemplar.HasTS || b0.Exemplar.TS != 1754640000.125 {
		t.Fatalf("exemplar parsed wrong: %+v", b0.Exemplar)
	}
	if b0.Value != 3 {
		t.Fatalf("bucket value = %v, want 3", b0.Value)
	}
	if fams[0].Samples[1].Exemplar == nil || fams[0].Samples[1].Exemplar.HasTS {
		t.Fatalf("timestampless exemplar parsed wrong: %+v", fams[0].Samples[1].Exemplar)
	}
	if fams[1].Samples[0].Exemplar == nil || fams[1].Samples[0].Value != 7 {
		t.Fatalf("counter exemplar parsed wrong: %+v", fams[1].Samples[0])
	}

	// Round trip: render with the OpenMetrics terminator, parse again,
	// families identical.
	var out strings.Builder
	RenderOpenMetrics(&out, fams)
	if !strings.HasSuffix(out.String(), "# EOF\n") {
		t.Fatalf("RenderOpenMetrics missing # EOF:\n%s", out.String())
	}
	again, err := ParsePrometheus(out.String())
	if err != nil {
		t.Fatalf("reparse: %v\npage:\n%s", err, out.String())
	}
	if !reflect.DeepEqual(fams, again) {
		t.Fatalf("round trip drifted:\nwant %+v\ngot  %+v", fams, again)
	}
}

func TestParsePrometheusEOFTerminates(t *testing.T) {
	page := "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n# EOF\nthis is not exposition text\n"
	fams, err := ParsePrometheus(page)
	if err != nil {
		t.Fatalf("content after # EOF must be ignored, got error: %v", err)
	}
	if len(fams) != 1 || fams[0].Samples[0].Value != 1 {
		t.Fatalf("parsed wrong: %+v", fams)
	}
}

func TestHistogramExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.LabeledHistogram("lat_seconds", "Latency.", "endpoint", "measure")
	h.Observe(3 * time.Millisecond)
	h.ObserveWithExemplar(200*time.Millisecond, TraceID(0xdeadbeef), String("endpoint", "measure"))
	if e := h.Exemplar(bucketIndex(200 * time.Millisecond)); e == nil || e.TraceID() != TraceID(0xdeadbeef).String() {
		t.Fatalf("bucket exemplar = %+v", e)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	page := b.String()
	if !strings.Contains(page, `# {trace_id="00000000deadbeef",endpoint="measure"} 0.2`) {
		t.Fatalf("exposition lost the exemplar:\n%s", page)
	}
	// The page must lint clean and parse back with the exemplar intact.
	if probs := LintPrometheus(page); len(probs) != 0 {
		t.Fatalf("lint problems: %v\n%s", probs, page)
	}
	fams, err := ParsePrometheus(page)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range fams[0].Samples {
		if s.Exemplar != nil && s.Exemplar.TraceID() == TraceID(0xdeadbeef).String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("parsed page lost the exemplar: %+v", fams[0].Samples)
	}
}

func TestObserveWithExemplarZeroTraceDegrades(t *testing.T) {
	var h Histogram
	h.ObserveWithExemplar(5*time.Millisecond, 0)
	if h.Snapshot().Count != 1 {
		t.Fatal("observation lost")
	}
	if e := h.Exemplar(bucketIndex(5 * time.Millisecond)); e != nil {
		t.Fatalf("zero trace must not store an exemplar: %+v", e)
	}
}
