package telemetry

// Prometheus text-exposition parser, the inverse of the writer behind
// /metricsz and the repository's one reader of the format: it reads a
// page back into typed families so the fleet monitor can federate
// scrapes, the linter (promlint.go) judges the families it returns, and
// RenderPrometheus closes the loop: parse(render(parse(page))) is the
// identity, which the round-trip tests pin against every exposition
// writer in the repository.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Label is one label pair. Order is preserved from the exposition text,
// so a parsed page can be re-rendered without reordering.
type Label struct {
	Key   string
	Value string
}

// MetricPoint is one parsed sample line: Name{Labels} Value, plus the
// OpenMetrics exemplar suffix when the line carried one.
type MetricPoint struct {
	Name     string
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// Label returns the value of the named label and whether it is present.
func (p MetricPoint) Label(key string) (string, bool) {
	for _, l := range p.Labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

// Key renders the point's identity — name plus labels in exposition
// order — which the fleet monitor uses as its per-backend series key.
func (p MetricPoint) Key() string {
	if len(p.Labels) == 0 {
		return p.Name
	}
	var b strings.Builder
	b.WriteString(p.Name)
	b.WriteByte('{')
	for i, l := range p.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// MetricFamily is one metric family: HELP/TYPE metadata plus its
// samples in exposition order. Histogram families carry their _bucket,
// _sum, and _count samples.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped; "" when undeclared
	Samples []MetricPoint
}

// Sample returns the family's sample with the given name and label set
// (nil matches the first sample with the name), or nil when absent.
func (f *MetricFamily) Sample(name string, labels []Label) *MetricPoint {
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name != name {
			continue
		}
		if labels == nil {
			return s
		}
		if len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for _, want := range labels {
			got, ok := s.Label(want.Key)
			if !ok || got != want.Value {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
	return nil
}

// ParsePrometheus parses a Prometheus text-exposition page into metric
// families in page order. Samples attach to the family they belong to
// (histogram/summary suffixes resolve to their base family); a family
// with no TYPE line has an empty Type, so a declared untyped family is
// told apart from an undeclared one. Malformed lines are errors — the
// monitor must not silently drop a backend's series the way stock
// scrapers do — and so is a second HELP or TYPE line for one family,
// which the reference Prometheus text parser rejects as well.
func ParsePrometheus(text string) ([]MetricFamily, error) {
	var fams []MetricFamily
	index := map[string]int{} // family name -> fams index
	get := func(name string) *MetricFamily {
		if i, ok := index[name]; ok {
			return &fams[i]
		}
		fams = append(fams, MetricFamily{Name: name})
		index[name] = len(fams) - 1
		return &fams[len(fams)-1]
	}
	typeFor := map[string]string{}
	helped := map[string]bool{}

	for i, line := range strings.Split(text, "\n") {
		n := i + 1
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if fields[0] == "" || !validMetricName(fields[0]) {
				return nil, fmt.Errorf("telemetry: line %d: malformed HELP: %s", n, line)
			}
			if helped[fields[0]] {
				return nil, fmt.Errorf("telemetry: line %d: duplicate HELP for family %s", n, fields[0])
			}
			helped[fields[0]] = true
			f := get(fields[0])
			if len(fields) == 2 {
				f.Help = promUnescapeHelp(fields[1])
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !validMetricName(fields[0]) {
				return nil, fmt.Errorf("telemetry: line %d: malformed TYPE: %s", n, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("telemetry: line %d: unknown TYPE %q", n, fields[1])
			}
			if _, dup := typeFor[fields[0]]; dup {
				return nil, fmt.Errorf("telemetry: line %d: duplicate TYPE for family %s", n, fields[0])
			}
			get(fields[0]).Type = fields[1]
			typeFor[fields[0]] = fields[1]
		case line == "# EOF":
			// OpenMetrics terminator. Everything after it is outside the
			// exposition by definition, so parsing stops here — a page
			// truncated *after* its # EOF still federates cleanly.
			return fams, nil
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and carry no structure.
		default:
			p, err := parsePromPoint(line)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", n, err)
			}
			fam := sampleFamily(p.Name, typeFor)
			f := get(fam)
			f.Samples = append(f.Samples, p)
		}
	}
	return fams, nil
}

// sampleFamily resolves a sample name to its family: histogram and
// summary samples carry a _bucket/_sum/_count suffix over the declared
// base name.
func sampleFamily(name string, typeFor map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			switch typeFor[base] {
			case "histogram", "summary":
				return base
			}
		}
	}
	return name
}

// parsePromPoint parses one sample line with full label-value
// unescaping (\" \\ \n). An OpenMetrics exemplar suffix (` # {labels}
// value [timestamp]`) parses into the point's Exemplar field.
func parsePromPoint(line string) (MetricPoint, error) {
	var p MetricPoint
	// Split any exemplar off first — its own '{' must not be mistaken
	// for the sample's label set. An unquoted '#' can only open an
	// exemplar: label values are quoted and floats cannot contain one.
	rest, exText := splitExemplarText(line)
	if exText != "" {
		ex, err := parseExemplar(exText)
		if err != nil {
			return p, fmt.Errorf("%w in %q", err, line)
		}
		p.Exemplar = ex
	}
	if brace := strings.IndexByte(rest, '{'); brace >= 0 {
		p.Name = rest[:brace]
		labels, tail, err := parseLabelBody(rest[brace+1:])
		if err != nil {
			return p, err
		}
		p.Labels = labels
		rest = strings.TrimSpace(tail)
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return p, fmt.Errorf("want `name value`: %s", line)
		}
		p.Name, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	if !validMetricName(p.Name) {
		return p, fmt.Errorf("invalid metric name %q", p.Name)
	}
	// Exposition values may carry a trailing timestamp; the writers in
	// this repository never emit one, so reject it rather than guess.
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return p, fmt.Errorf("unparseable value in %q", line)
	}
	p.Value = v
	return p, nil
}

// splitExemplarText splits a sample line at the first unquoted '#',
// which by the exposition grammar can only open an exemplar: label
// values were quoted, and floats cannot contain '#'. Returns the
// sample text and the exemplar text ("" when none).
func splitExemplarText(line string) (sample, exemplar string) {
	inQuote := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inQuote {
			// Consume escape pairs whole: checking only the previous byte
			// misreads `\\"` (escaped backslash, then a real closing
			// quote) as an escaped quote and never leaves the string.
			switch c {
			case '\\':
				i++
			case '"':
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '#':
			return strings.TrimSpace(line[:i]), strings.TrimSpace(line[i+1:])
		}
	}
	return line, ""
}

// parseExemplar parses the text after an exemplar's '#' marker:
// `{labels} value [timestamp]`.
func parseExemplar(s string) (*Exemplar, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("exemplar must open with '{'")
	}
	labels, tail, err := parseLabelBody(s[1:])
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(tail)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("exemplar wants `{labels} value [timestamp]`")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("unparseable exemplar value %q", fields[0])
	}
	e := &Exemplar{Labels: labels, Value: v}
	if len(fields) == 2 {
		ts, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable exemplar timestamp %q", fields[1])
		}
		e.TS, e.HasTS = ts, true
	}
	return e, nil
}

// parseLabelBody scans `k="v",k2="v2"}` (the text after the opening
// brace), unescaping values, and returns the labels plus the text after
// the closing brace.
func parseLabelBody(s string) ([]Label, string, error) {
	var labels []Label
	i := 0
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label set: %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		if key == "" {
			return nil, "", fmt.Errorf("empty label name in %q", s)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					// Unknown escapes pass through verbatim, matching the
					// reference Prometheus parser's tolerance.
					b.WriteByte('\\')
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Key: key, Value: b.String()})
	}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// RenderPrometheus writes families back in the canonical exposition
// shape the repository's writers produce: HELP then TYPE then samples,
// label values Prometheus-escaped, values in shortest round-trip form.
// Parsing the output reproduces the input families exactly.
func RenderPrometheus(w io.Writer, fams []MetricFamily) {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			b.WriteString("# HELP " + f.Name + " " + promEscapeHelp(f.Help) + "\n")
		}
		if f.Type != "" {
			b.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		}
		for _, s := range f.Samples {
			b.WriteString(s.Key())
			b.WriteByte(' ')
			b.WriteString(formatPromValue(s.Value))
			if s.Exemplar != nil {
				appendExemplar(&b, s.Exemplar)
			}
			b.WriteByte('\n')
		}
	}
	_, _ = io.WriteString(w, b.String())
}

// RenderOpenMetrics renders families exactly as RenderPrometheus does
// and appends the OpenMetrics `# EOF` terminator, closing the
// tolerate-and-round-trip loop for pages produced by OpenMetrics-style
// renderers.
func RenderOpenMetrics(w io.Writer, fams []MetricFamily) {
	RenderPrometheus(w, fams)
	_, _ = io.WriteString(w, "# EOF\n")
}

// formatPromValue renders a sample value the way the repository's
// writers do: shortest float64 round-trip form, integers undecorated.
func formatPromValue(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscape escapes a label value per the exposition format: backslash,
// double quote, and newline. (strconv.Quote is close but Go-escapes
// control and non-ASCII bytes, which stock Prometheus parsers read
// literally — the quirk the round-trip tests uncovered.)
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// promQuote renders a label value quoted and escaped for exposition.
func promQuote(v string) string { return `"` + promEscape(v) + `"` }

// PromQuote is promQuote for exposition writers outside this package
// (/metricsz renders build identity as label values).
func PromQuote(v string) string { return promQuote(v) }

// promEscapeHelp escapes HELP text: backslash and newline only (quotes
// are legal in HELP).
func promEscapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promUnescapeHelp reverses promEscapeHelp.
func promUnescapeHelp(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}
