package telemetry

// Prometheus text-exposition linter. /metricsz is consumed by scrapers
// that silently drop malformed families, so the test suite lints the
// rendered output instead of trusting the writer. The linter judges the
// families ParsePrometheus reads — the bytes the fleet monitor
// federates — rather than reading the page a second way: every family
// must carry HELP text and a TYPE, exemplars may sit only on counters
// and histogram buckets, and histogram series must have monotone,
// cumulative buckets whose +Inf count equals the _count sample.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// LintPrometheus parses Prometheus text exposition and returns a list
// of problems, empty when the text is well-formed. A page
// ParsePrometheus rejects has its parse error as the one problem.
func LintPrometheus(text string) []string {
	fams, err := ParsePrometheus(text)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for i := range fams {
		f := &fams[i]
		if f.Help == "" {
			report("family %s has no # HELP text", f.Name)
		}
		if f.Type == "" {
			report("family %s has no # TYPE", f.Name)
		}
		for _, s := range f.Samples {
			if s.Exemplar == nil {
				continue
			}
			// OpenMetrics allows exemplars only on counters and histogram
			// buckets, and bounds their label set at 128 runes.
			if f.Type != "counter" && !(f.Type == "histogram" && strings.HasSuffix(s.Name, "_bucket")) {
				report("exemplar on %s, which is neither a counter nor a histogram bucket", s.Key())
			}
			runes := 0
			for _, l := range s.Exemplar.Labels {
				runes += utf8.RuneCountInString(l.Key) + utf8.RuneCountInString(l.Value)
			}
			if runes > 128 {
				report("exemplar on %s: label set is %d runes, over the OpenMetrics 128 limit", s.Key(), runes)
			}
		}
		if f.Type == "histogram" {
			lintHistogram(f, report)
		}
	}

	// ParsePrometheus stops reading at # EOF; only blank lines may follow.
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) != "# EOF" {
			continue
		}
		for j := i + 1; j < len(lines); j++ {
			if rest := strings.TrimSpace(lines[j]); rest != "" {
				report("line %d: content after # EOF: %s", j+1, rest)
			}
		}
		break
	}
	return problems
}

// lintHistogram checks each series of histogram family f — its samples
// grouped by every label but le — for strictly increasing le bounds,
// cumulative bucket counts, and a +Inf bucket equal to _count.
func lintHistogram(f *MetricFamily, report func(format string, args ...any)) {
	type series struct {
		bounds []float64 // le values, in exposition order
		counts []float64
		count  float64
		hasCnt bool
	}
	byKey := map[string]*series{}
	var keys []string // page order
	for _, s := range f.Samples {
		bucket := strings.HasSuffix(s.Name, "_bucket")
		if !bucket && !strings.HasSuffix(s.Name, "_count") {
			continue
		}
		le, hasLe := "", false
		rest := make([]Label, 0, len(s.Labels))
		for _, l := range s.Labels {
			if l.Key == "le" {
				le, hasLe = l.Value, true
			} else {
				rest = append(rest, l)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].Key < rest[j].Key })
		key := MetricPoint{Name: f.Name, Labels: rest}.Key()
		sr := byKey[key]
		if sr == nil {
			sr = &series{}
			byKey[key] = sr
			keys = append(keys, key)
		}
		if !bucket {
			sr.count, sr.hasCnt = s.Value, true
			continue
		}
		if !hasLe {
			report("%s bucket without le label", s.Key())
			continue
		}
		bound, err := strconv.ParseFloat(le, 64) // reads "+Inf" too
		if err != nil {
			report("%s: unparseable le %q", s.Key(), le)
			continue
		}
		sr.bounds = append(sr.bounds, bound)
		sr.counts = append(sr.counts, s.Value)
	}

	for _, key := range keys {
		sr := byKey[key]
		if len(sr.bounds) == 0 {
			report("histogram series %s has no buckets", key)
			continue
		}
		for i := 1; i < len(sr.bounds); i++ {
			if sr.bounds[i] <= sr.bounds[i-1] {
				report("histogram series %s: le bounds not strictly increasing at index %d", key, i)
			}
			if sr.counts[i] < sr.counts[i-1] {
				report("histogram series %s: bucket counts not cumulative at index %d", key, i)
			}
		}
		last := len(sr.bounds) - 1
		if sr.bounds[last] != math.Inf(1) {
			report("histogram series %s missing +Inf bucket", key)
		}
		if !sr.hasCnt {
			report("histogram series %s missing _count sample", key)
		} else if sr.counts[last] != sr.count {
			report("histogram series %s: +Inf bucket %v != _count %v", key, sr.counts[last], sr.count)
		}
	}
}
