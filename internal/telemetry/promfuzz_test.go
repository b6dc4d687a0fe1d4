package telemetry

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"
)

// FuzzParsePrometheus drives the exposition parser with arbitrary
// pages, seeded on the exemplar syntax and the escaping edge cases the
// hand-written tests pin. Properties: the parser never panics; any
// page it accepts renders back to a page it accepts again; and one
// parse/render cycle reaches a fixpoint — render(parse(render(parse(x))))
// == render(parse(x)) — so federation re-scrapes cannot drift. (The
// fixpoint is compared as rendered text rather than DeepEqual so NaN
// sample values, which are never equal to themselves, still pass.)
func FuzzParsePrometheus(f *testing.F) {
	seeds := []string{
		// Plain families, every type.
		"# HELP a_total A.\n# TYPE a_total counter\na_total 1\n",
		"# TYPE g gauge\ng{x=\"y\"} 2.5\n# EOF\n",
		"# TYPE s summary\ns_sum 1.5\ns_count 3\n",
		// Histogram with exemplars: timestamped, timestampless, huge and
		// zero timestamps, escaped exemplar labels.
		"# TYPE h histogram\nh_bucket{le=\"0.25\"} 3 # {trace_id=\"00000000deadbeef\"} 0.21 1754640000.125\nh_bucket{le=\"+Inf\"} 4 # {trace_id=\"00000000cafef00d\"} 1.5\nh_sum 2.2\nh_count 4\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"01\"} 0.5 0\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"01\"} 0.5 72057594037927936\n",
		"# TYPE c counter\nc 7 # {a=\"x\\\\y\\\"z\\nw\"} 1 1e-9\n",
		// Escaped label values on the sample itself.
		"u{k=\"line\\nbreak\",q=\"say \\\"hi\\\"\",b=\"back\\\\slash\"} 9\n",
		"u{k=\"unknown \\q escape\"} 1\n",
		// '#' inside a quoted label value is not an exemplar marker.
		"u{frag=\"a#b\"} 1\n",
		// Declarations without samples, samples without declarations.
		"# HELP lonely_total Never sampled.\n# TYPE lonely_total counter\n",
		"undeclared 4\n",
		// Values in every float shape.
		"v 1e3\nw -0.0\nx +Inf\ny NaN\nz 9007199254740993\n",
		// Content after the OpenMetrics terminator is ignored.
		"# TYPE a gauge\na 1\n# EOF\ngarbage here {{{\n",
		// Malformed lines the parser must reject without panicking.
		"a{b=\"unterminated\n",
		"a{=\"\"} 1\n",
		"a 1 # 0.5\n",
		"a 1 # {} \n",
		"a 1 # {t=\"x\"} nope\n",
		"a 1 # {t=\"x\"} 1 2 3\n",
		"# TYPE a wat\n",
		"# HELP  broken\n",
		"{no_name=\"x\"} 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, page string) {
		fams, err := ParsePrometheus(page)
		if err != nil {
			return // rejection is fine; panics and hangs are the bugs
		}
		var first strings.Builder
		RenderOpenMetrics(&first, fams)
		again, err := ParsePrometheus(first.String())
		if err != nil {
			t.Fatalf("rendered page rejected: %v\ninput: %q\nrendered:\n%s", err, page, first.String())
		}
		var second strings.Builder
		RenderOpenMetrics(&second, again)
		if first.String() != second.String() {
			t.Fatalf("parse/render not a fixpoint\ninput: %q\nfirst:\n%s\nsecond:\n%s",
				page, first.String(), second.String())
		}
	})
}

// TestExemplarTimestampEdgeCases pins exact round trips for the
// timestamps the fuzzer can only probabilistically hit: zero (the unix
// epoch, still a real timestamp), sub-nanosecond fractions, and values
// far beyond any clock — all must survive parse → render → parse
// bit-exactly, with HasTS preserved.
func TestExemplarTimestampEdgeCases(t *testing.T) {
	cases := []struct {
		ts    float64
		hasTS bool
	}{
		{0, true},                      // epoch: present but zero
		{1e-9, true},                   // sub-nanosecond fraction
		{1754640000.125, true},         // a realistic stamp with fraction
		{72057594037927936, true},      // 2^56: beyond float53 integer range
		{1.7976931348623157e308, true}, // MaxFloat64
		{0, false},                     // no timestamp at all
	}
	for _, c := range cases {
		in := []MetricFamily{{
			Name: "m_total", Type: "counter", Help: "M.",
			Samples: []MetricPoint{{
				Name:  "m_total",
				Value: 1,
				Exemplar: &Exemplar{
					Labels: []Label{{Key: "trace_id", Value: "00000000deadbeef"}},
					Value:  0.5,
					TS:     c.ts,
					HasTS:  c.hasTS,
				},
			}},
		}}
		var page strings.Builder
		RenderOpenMetrics(&page, in)
		out, err := ParsePrometheus(page.String())
		if err != nil {
			t.Fatalf("ts=%v: %v\n%s", c.ts, err, page.String())
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("ts=%v (hasTS=%v) drifted:\nwant %+v\ngot  %+v\npage:\n%s",
				c.ts, c.hasTS, in, out, page.String())
		}
	}
}

// TestEscapedLabelRoundTrip pins escaping through a full cycle for
// label values on samples and exemplars alike: quotes, backslashes,
// newlines, exposition-significant bytes ('#', '{', '}', ','), and
// multi-byte UTF-8.
func TestEscapedLabelRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`with "quotes"`,
		`back\slash`,
		"line\nbreak",
		`trailing backslash \`,
		`#not-an-exemplar`,
		`braces {and} commas, equals=signs`,
		"μεσαίο 電力 🚀",
		`\" already escaped-looking`,
	}
	for _, v := range values {
		in := []MetricFamily{{
			Name: "m", Type: "gauge",
			Samples: []MetricPoint{{
				Name:   "m",
				Labels: []Label{{Key: "k", Value: v}},
				Value:  1,
				Exemplar: &Exemplar{
					Labels: []Label{{Key: "trace_id", Value: "01"}, {Key: "k", Value: v}},
					Value:  2,
				},
			}},
		}}
		var page strings.Builder
		RenderOpenMetrics(&page, in)
		out, err := ParsePrometheus(page.String())
		if err != nil {
			t.Fatalf("value %q: %v\n%s", v, err, page.String())
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("value %q drifted:\nwant %+v\ngot  %+v\npage:\n%s", v, in, out, page.String())
		}
	}
}

// FuzzRegistryPageLints is the exposition contract between the
// histogram writer, the parser and the linter: a Registry page with one
// labelled histogram, holding a plain observation and an exemplar
// observation, lints clean for any label value, HELP text and duration,
// and ParsePrometheus reads the HELP text and the label value back
// exactly. A HELP text that is empty or ends in white space is skipped:
// the parser trims each line's trailing white space.
func FuzzRegistryPageLints(f *testing.F) {
	for _, v := range []string{`a\`, `x"y\z`, `"new` + "\n" + `line"`, `#}{`} {
		f.Add(v, "Fuzzed histogram.", int64(3*time.Millisecond))
	}
	f.Add("v", "two\nlines", int64(time.Millisecond))
	f.Add("v", `lit\nx`, int64(time.Millisecond))
	f.Fuzz(func(t *testing.T, value, help string, ns int64) {
		if help == "" || strings.TrimRightFunc(help, unicode.IsSpace) != help {
			t.Skip("the parser trims a line's trailing white space")
		}
		reg := NewRegistry()
		h := reg.LabeledHistogram("fuzz_seconds", help, "path", value)
		h.Observe(time.Duration(ns))
		h.ObserveWithExemplar(time.Duration(ns)/2, TraceID(0xfeed))
		var page strings.Builder
		RenderPrometheus(&page, reg.Families())
		if problems := LintPrometheus(page.String()); len(problems) != 0 {
			t.Fatalf("label %q, help %q, duration %d: lint problems %v\n%s", value, help, ns, problems, page.String())
		}
		fams, err := ParsePrometheus(page.String())
		if err != nil {
			t.Fatal(err)
		}
		if fams[0].Help != help {
			t.Fatalf("read help %q, want %q\n%s", fams[0].Help, help, page.String())
		}
		for _, s := range fams[0].Samples {
			if got, _ := s.Label("path"); got != value {
				t.Fatalf("%s read label %q, want %q", s.Name, got, value)
			}
		}
	})
}
