package monitor

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"time"

	"repro/internal/traceanalytics"
)

// sparkline renders a series tail as an inline SVG polyline — no
// scripts, no external assets, so the dashboard stays a single
// self-contained response that works with any HTTP client.
func sparkline(samples []Sample, w, h int) template.HTML {
	if len(samples) < 2 {
		return template.HTML(fmt.Sprintf(
			`<svg width="%d" height="%d" class="spark"><text x="2" y="%d" class="nodata">no data</text></svg>`,
			w, h, h-3))
	}
	lo, hi := samples[0].V, samples[0].V
	for _, s := range samples[1:] {
		if s.V < lo {
			lo = s.V
		}
		if s.V > hi {
			hi = s.V
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	pad := 2.0
	var pts strings.Builder
	for i, s := range samples {
		x := pad + float64(i)/float64(len(samples)-1)*(float64(w)-2*pad)
		y := pad + (1-(s.V-lo)/span)*(float64(h)-2*pad)
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	return template.HTML(fmt.Sprintf(
		`<svg width="%d" height="%d" class="spark" role="img"><polyline points="%s" fill="none" stroke-width="1.2"/></svg>`,
		w, h, pts.String()))
}

// dashboardRow is one backend's rendered row.
type dashboardRow struct {
	BackendSnapshot
	StatusClass string
	Status      string
	LatSpark    template.HTML
	HitSpark    template.HTML
	QueueSpark  template.HTML
	RowsSpark   template.HTML
	SealAge     string
}

type dashboardAlert struct {
	Alert
	StateClass string
	Age        string
}

// dashboardSLO is one objective's error-budget gauge row.
type dashboardSLO struct {
	URL string
	SLOStatus
	GaugePct   float64 // clamped budget fraction for the bar width
	GaugeClass string  // ok / warn / crit by budget remaining
	StateClass string
}

// dashboardStage is one pipeline stage's share of fleet critical-path
// time, rendered as a horizontal bar.
type dashboardStage struct {
	Stage  string
	Pct    float64
	BarPct float64 // clamped to [0,100] for the bar width
}

// dashboardCrit is one top-critical-path row.
type dashboardCrit struct {
	ID        string
	Root      string
	WallMS    float64
	Seed      string
	Sources   string
	SpanCount int
	TopStage  string
	TopPct    float64
}

// dashboardWF is one waterfall bar in the slowest-trace panel.
type dashboardWF struct {
	Name     string
	Source   string
	Stage    string
	IndentPx int
	LeftPct  float64
	WidthPct float64
	DurMS    float64
	Critical bool
}

type dashboardData struct {
	Generated   string
	Build       string
	Sweeps      int64
	Interval    string
	Firing      int
	Pending     int
	Rows        []dashboardRow
	StoreRows   []dashboardRow
	SLORows     []dashboardSLO
	TraceStats  string
	StageBars   []dashboardStage
	CritRows    []dashboardCrit
	Waterfall   []dashboardWF
	WaterfallID string
	WaterfallMS float64
	Alerts      []dashboardAlert
	Rules       []Rule
}

var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>powerperf fleet</title>
<style>
 body { font: 13px/1.5 system-ui, sans-serif; margin: 1.2em; background: #101418; color: #d8dde3; }
 h1 { font-size: 1.25em; margin: 0 0 .2em; } h2 { font-size: 1.05em; margin: 1.4em 0 .4em; }
 h3 { font-size: .95em; margin: 1em 0 .3em; }
 .meta { color: #8a94a0; margin-bottom: 1em; }
 table { border-collapse: collapse; width: 100%; }
 th, td { text-align: left; padding: .3em .7em; border-bottom: 1px solid #232a32; white-space: nowrap; }
 th { color: #8a94a0; font-weight: 600; }
 .up { color: #5fd38a; } .down { color: #f2647b; font-weight: 700; } .warn { color: #e8b55a; }
 .spark polyline { stroke: #6ab0f3; } .spark .nodata { fill: #555e68; font-size: 9px; }
 .firing { color: #f2647b; font-weight: 700; } .pending { color: #e8b55a; } .resolved { color: #5fd38a; }
 .mono { font-family: ui-monospace, monospace; } .dim { color: #8a94a0; }
 .none { color: #5fd38a; }
 .gaugebg { width: 140px; height: 10px; background: #232a32; border-radius: 5px; overflow: hidden; }
 .gauge { height: 100%; border-radius: 5px; } .gauge.ok { background: #5fd38a; }
 .gauge.warng { background: #e8b55a; } .gauge.crit { background: #f2647b; }
 .inactive { color: #8a94a0; }
 .wfbg { width: 320px; height: 10px; background: #232a32; border-radius: 2px; }
 .wf { height: 100%; border-radius: 2px; background: #3d5a7a; }
 .wf.crit { background: #6ab0f3; }
</style>
</head>
<body>
<h1>powerperf fleet</h1>
<div class="meta">generated {{.Generated}} &middot; monitor {{.Build}} &middot; sweep #{{.Sweeps}} every {{.Interval}} &middot;
{{if .Firing}}<span class="firing">{{.Firing}} firing</span>{{else}}<span class="none">0 firing</span>{{end}}{{if .Pending}} &middot; <span class="pending">{{.Pending}} pending</span>{{end}}</div>

<h2>Backends</h2>
<table>
<tr><th>backend</th><th>status</th><th>build</th><th>seed</th><th>uptime</th><th>hit rate</th><th>hit trend</th><th>fill mean</th><th>fill trend</th><th>queue</th><th>queue trend</th><th>scrape</th></tr>
{{range .Rows}}
<tr>
 <td class="mono">{{.URL}}</td>
 <td class="{{.StatusClass}}">{{.Status}}</td>
 <td class="mono dim">{{.Build.Commit}}</td>
 <td>{{.Seed}}</td>
 <td>{{printf "%.0fs" .UptimeS}}</td>
 <td>{{printf "%.1f%%" .HitRatePct}}</td>
 <td>{{.HitSpark}}</td>
 <td>{{printf "%.2fms" .FillMeanMS}}</td>
 <td>{{.LatSpark}}</td>
 <td>{{printf "%.0f/%.0f" .QueueDepth .QueueCap}}</td>
 <td>{{.QueueSpark}}</td>
 <td class="dim">{{printf "%.1fms" .ScrapeMS}}{{if .Error}} <span class="down" title="{{.Error}}">!</span>{{end}}</td>
</tr>
{{end}}
</table>

{{if .StoreRows}}
<h2>Study store</h2>
<table>
<tr><th>backend</th><th>segments</th><th>rows</th><th>rows trend</th><th>bytes</th><th>last seal</th><th>dropped</th><th>write errors</th></tr>
{{range .StoreRows}}
<tr>
 <td class="mono">{{.URL}}</td>
 <td>{{printf "%.0f" .StoreSegments}}</td>
 <td>{{printf "%.0f" .StoreRows}}</td>
 <td>{{.RowsSpark}}</td>
 <td>{{printf "%.0f" .StoreBytes}}</td>
 <td class="dim">{{.SealAge}}</td>
 <td>{{if .StoreDropped}}<span class="warn">{{printf "%.0f" .StoreDropped}}</span>{{else}}0{{end}}</td>
 <td>{{if .StoreWriteErr}}<span class="down">{{printf "%.0f" .StoreWriteErr}}</span>{{else}}0{{end}}</td>
</tr>
{{end}}
</table>
{{end}}

{{if .SLORows}}
<h2>Service objectives</h2>
<table>
<tr><th>backend</th><th>objective</th><th>error budget</th><th>compliance</th><th>fast burn</th><th>slow burn</th><th>alert</th></tr>
{{range .SLORows}}
<tr>
 <td class="mono">{{.URL}}</td>
 <td>{{.Objective}}</td>
 <td><div class="gaugebg" title="{{printf "%.1f%%" .BudgetPct}} of budget left"><div class="gauge {{.GaugeClass}}" style="width:{{printf "%.0f" .GaugePct}}%"></div></div></td>
 <td>{{printf "%.3f%%" .CompliancePct}}</td>
 <td>{{printf "%.3g" .FastBurn}}</td>
 <td>{{printf "%.3g" .SlowBurn}}</td>
 <td class="{{.StateClass}}">{{.AlertState}}</td>
</tr>
{{end}}
</table>
{{end}}

{{if .StageBars}}
<h2>Trace analytics</h2>
<p class="dim">{{.TraceStats}}</p>
<table>
<tr><th>critical-path stage</th><th>fleet share</th><th></th></tr>
{{range .StageBars}}
<tr>
 <td class="mono">{{.Stage}}</td>
 <td>{{printf "%.1f%%" .Pct}}</td>
 <td><div class="wfbg"><div class="wf crit" style="width:{{printf "%.1f" .BarPct}}%"></div></div></td>
</tr>
{{end}}
</table>
{{if .CritRows}}
<h3>Top critical paths</h3>
<table>
<tr><th>trace</th><th>root</th><th>wall</th><th>seed</th><th>sources</th><th>spans</th><th>dominant stage</th></tr>
{{range .CritRows}}
<tr>
 <td class="mono dim">{{.ID}}</td>
 <td>{{.Root}}</td>
 <td>{{printf "%.2fms" .WallMS}}</td>
 <td>{{.Seed}}</td>
 <td class="mono dim" style="white-space:normal">{{.Sources}}</td>
 <td>{{.SpanCount}}</td>
 <td>{{.TopStage}} {{printf "%.0f%%" .TopPct}}</td>
</tr>
{{end}}
</table>
{{end}}
{{if .Waterfall}}
<h3>Slowest trace <span class="mono dim">{{.WaterfallID}}</span> &middot; {{printf "%.2fms" .WaterfallMS}}</h3>
<table>
<tr><th>span</th><th>source</th><th>stage</th><th>self/total</th><th>timeline</th></tr>
{{range .Waterfall}}
<tr>
 <td class="mono" style="padding-left:{{.IndentPx}}px">{{.Name}}</td>
 <td class="mono dim">{{.Source}}</td>
 <td class="dim">{{.Stage}}</td>
 <td>{{printf "%.2fms" .DurMS}}</td>
 <td><div class="wfbg"><div class="wf{{if .Critical}} crit{{end}}" style="margin-left:{{printf "%.1f" .LeftPct}}%;width:{{printf "%.1f" .WidthPct}}%"></div></div></td>
</tr>
{{end}}
</table>
{{end}}
{{end}}

<h2>Alerts</h2>
{{if .Alerts}}
<table>
<tr><th>state</th><th>rule</th><th>backend</th><th>value</th><th>age</th><th>reason</th></tr>
{{range .Alerts}}
<tr>
 <td class="{{.StateClass}}">{{.State}}</td>
 <td>{{.Rule}}</td>
 <td class="mono">{{.Backend}}</td>
 <td>{{printf "%.4g" .Value}}</td>
 <td class="dim">{{.Age}}</td>
 <td style="white-space:normal">{{.Reason}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="none">No alerts: every rule quiet across the fleet.</p>{{end}}

<h2>Slowest cells</h2>
<table>
<tr><th>backend</th><th>benchmark</th><th>processor</th><th>latency</th></tr>
{{range .Rows}}{{$url := .URL}}{{range .TopCells}}
<tr><td class="mono">{{$url}}</td><td>{{.Benchmark}}</td><td>{{.Processor}}</td><td>{{printf "%.2fms" .Ms}}</td></tr>
{{end}}{{end}}
</table>

<h2>Rules</h2>
<table>
<tr><th>rule</th><th>kind</th><th>series</th><th>for/clear</th><th>what it catches</th></tr>
{{range .Rules}}
<tr><td>{{.Name}}</td><td>{{.Kind}}</td><td class="mono">{{.Series}}</td><td>{{.For}}/{{.Clear}}</td><td style="white-space:normal" class="dim">{{.Help}}</td></tr>
{{end}}
</table>
</body>
</html>
`))

// HitRatePct converts the stored fraction for display.
func (r dashboardRow) HitRatePct() float64 { return r.HitRate * 100 }

// BudgetPct is the raw error-budget remaining as a percentage (may be
// negative once the budget is blown).
func (s dashboardSLO) BudgetPct() float64 { return s.BudgetRemaining * 100 }

// CompliancePct converts compliance for display.
func (s dashboardSLO) CompliancePct() float64 { return s.Compliance * 100 }

// sloRow builds one error-budget gauge row from a federated status.
func sloRow(url string, st SLOStatus) dashboardSLO {
	row := dashboardSLO{URL: url, SLOStatus: st}
	row.GaugePct = st.BudgetRemaining * 100
	if row.GaugePct < 0 {
		row.GaugePct = 0
	}
	if row.GaugePct > 100 {
		row.GaugePct = 100
	}
	switch {
	case st.BudgetRemaining <= 0.1:
		row.GaugeClass = "crit"
	case st.BudgetRemaining <= 0.5:
		row.GaugeClass = "warng"
	default:
		row.GaugeClass = "ok"
	}
	switch st.AlertState {
	case "firing":
		row.StateClass = "down"
	case "pending":
		row.StateClass = "warn"
	case "inactive":
		row.StateClass = "inactive"
	default:
		row.StateClass = "none"
	}
	return row
}

// slowestWaterfall renders the slowest assembled trace's span tree as
// timeline bars, capped at maxRows spans.
func (m *Monitor) slowestWaterfall(maxRows int) ([]dashboardWF, string, float64) {
	traces := m.analytics.Search(traceanalytics.Query{Limit: 1})
	if len(traces) == 0 {
		return nil, "", 0
	}
	tr := traces[0]
	wall := tr.WallMS
	if wall <= 0 {
		wall = 1
	}
	var rows []dashboardWF
	for i := range tr.Spans {
		if len(rows) >= maxRows {
			break
		}
		sp := &tr.Spans[i]
		width := sp.DurMS / wall * 100
		if width < 0.5 {
			width = 0.5
		}
		left := sp.StartOffsetMS / wall * 100
		if left+width > 100 {
			left = 100 - width
		}
		if left < 0 {
			left = 0
		}
		rows = append(rows, dashboardWF{
			Name:     sp.Name,
			Source:   sp.Source,
			Stage:    sp.Stage,
			IndentPx: sp.Depth * 12,
			LeftPct:  left,
			WidthPct: width,
			DurMS:    sp.DurMS,
			Critical: sp.OnCritical,
		})
	}
	return rows, tr.ID, tr.WallMS
}

// DashboardHandler serves GET /debug/dashboard: a self-contained HTML
// fleet view (no scripts, no external assets) that meta-refreshes every
// 5 seconds.
func (m *Monitor) DashboardHandler() http.Handler {
	const sparkN, sparkW, sparkH = 60, 140, 26
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := m.Snapshot()
		data := dashboardData{
			Generated: snap.Generated.UTC().Format(time.RFC3339),
			Build:     snap.Build.String(),
			Sweeps:    snap.Sweeps,
			Interval:  m.opts.Interval.String(),
			Rules:     m.detector.Rules(),
		}
		for _, bs := range snap.Backends {
			row := dashboardRow{BackendSnapshot: bs}
			switch {
			case !bs.Up:
				row.StatusClass, row.Status = "down", "DOWN"
			case !bs.ScrapeOK:
				row.StatusClass, row.Status = "warn", "degraded"
			default:
				row.StatusClass, row.Status = "up", "up"
			}
			row.LatSpark = sparkline(m.Series(bs.URL, "powerperfd_cell_fill_seconds_mean", sparkN), sparkW, sparkH)
			row.HitSpark = sparkline(m.Series(bs.URL, "cache_hit_rate", sparkN), sparkW, sparkH)
			row.QueueSpark = sparkline(m.Series(bs.URL, "powerperfd_queue_depth", sparkN), sparkW, sparkH)
			data.Rows = append(data.Rows, row)
			if bs.HasStore {
				srow := row
				srow.RowsSpark = sparkline(m.Series(bs.URL, "powerperfd_store_rows", sparkN), sparkW, sparkH)
				if bs.StoreLastSeal > 0 {
					age := snap.Generated.Sub(time.Unix(int64(bs.StoreLastSeal), 0))
					if age < 0 {
						age = 0
					}
					srow.SealAge = age.Truncate(time.Second).String() + " ago"
				} else {
					srow.SealAge = "never"
				}
				data.StoreRows = append(data.StoreRows, srow)
			}
			for _, st := range bs.SLOs {
				data.SLORows = append(data.SLORows, sloRow(bs.URL, st))
			}
		}
		if snap.Traces != nil {
			st := snap.Traces.Stats
			data.TraceStats = fmt.Sprintf("%d traces assembled from %d spans (%d held, %d duplicate scrapes, %d evicted)",
				st.Traces, st.SpansSeen, st.SpansHeld, st.Duplicates, st.Evicted)
			for _, sh := range snap.Traces.StageShares {
				bar := sh.Frac * 100
				if bar > 100 {
					bar = 100
				}
				data.StageBars = append(data.StageBars, dashboardStage{
					Stage: sh.Stage, Pct: sh.Frac * 100, BarPct: bar,
				})
			}
			for _, d := range snap.Traces.TopCritical {
				data.CritRows = append(data.CritRows, dashboardCrit{
					ID:        d.ID,
					Root:      d.Root,
					WallMS:    d.WallMS,
					Seed:      d.Seed,
					Sources:   strings.Join(d.Sources, ", "),
					SpanCount: d.SpanCount,
					TopStage:  d.TopStage,
					TopPct:    d.TopStageFrac * 100,
				})
			}
			data.Waterfall, data.WaterfallID, data.WaterfallMS = m.slowestWaterfall(40)
		}
		for _, a := range snap.Alerts {
			da := dashboardAlert{Alert: a, StateClass: a.State.String()}
			var since time.Time
			switch a.State {
			case StateFiring:
				since = a.FiringSince
			case StatePending:
				since = a.PendingSince
			default:
				since = a.ResolvedSince
			}
			if !since.IsZero() {
				da.Age = snap.Generated.Sub(since).Truncate(time.Second).String()
			}
			switch a.State {
			case StateFiring:
				data.Firing++
			case StatePending:
				data.Pending++
			}
			data.Alerts = append(data.Alerts, da)
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = dashboardTmpl.Execute(w, data)
	})
}
