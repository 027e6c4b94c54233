package obs

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// RenderTable renders rows as a width-aligned plain-text table with a dashed
// separator under the first (header) row. Rows may have differing lengths;
// short rows leave trailing cells empty.
func RenderTable(rows [][]string) string {
	var widths []int
	for _, r := range rows {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Table renders the report for humans: per-shard counter totals with
// sampled in-flight summaries (stats.Percentile over the timeline's sample
// series), a compact in-flight histogram, superstep occupancy, and the
// wall-clock phases as a second table.
func (r *Report) Table() string {
	if r == nil || r.Timeline == nil {
		return ""
	}
	tl := r.Timeline
	header := []string{"metric"}
	for _, t := range tl.Tracks {
		header = append(header, fmt.Sprintf("shard %d", t.Shard))
	}
	header = append(header, "total")
	rows := [][]string{header}

	counter := func(label string, get func(Totals) int64) {
		cells := []string{label}
		for _, t := range tl.Tracks {
			cells = append(cells, fmt.Sprintf("%d", get(t.Totals)))
		}
		rows = append(rows, append(cells, fmt.Sprintf("%d", get(tl.Totals))))
	}
	counter("deliveries", func(t Totals) int64 { return t.Deliveries })
	counter("sends", func(t Totals) int64 { return t.Sends })
	counter("drops", func(t Totals) int64 { return t.Drops })
	counter("crashes", func(t Totals) int64 { return t.Crashes })
	counter("peak in-flight", func(t Totals) int64 { return t.PeakInFlight })

	// Sampled in-flight distribution, per track and combined.
	var combined []float64
	perTrack := make([][]float64, len(tl.Tracks))
	for i, t := range tl.Tracks {
		for _, s := range t.Samples {
			perTrack[i] = append(perTrack[i], float64(s.InFlight))
			combined = append(combined, float64(s.InFlight))
		}
	}
	quantile := func(label string, p float64) {
		cells := []string{label}
		for i := range tl.Tracks {
			cells = append(cells, renderQ(stats.Percentile(perTrack[i], p)))
		}
		rows = append(rows, append(cells, renderQ(stats.Percentile(combined, p))))
	}
	quantile("in-flight p50 (sampled)", 50)
	quantile("in-flight p90 (sampled)", 90)
	for _, b := range stats.Histogram(combined, 4) {
		cells := []string{fmt.Sprintf("in-flight [%.0f, %.0f]", b.Lo, b.Hi)}
		for range tl.Tracks {
			cells = append(cells, "-")
		}
		rows = append(rows, append(cells, fmt.Sprintf("%d", b.Count)))
	}

	// Superstep occupancy: row count plus the worst per-superstep imbalance
	// (max/mean of per-shard deliveries — 1.00 is perfectly balanced).
	cells := []string{"supersteps"}
	for range tl.Tracks {
		cells = append(cells, "-")
	}
	rows = append(rows, append(cells, fmt.Sprintf("%d", len(tl.Supersteps))))
	if imb, ok := worstImbalance(tl.Supersteps); ok {
		cells = []string{"occupancy imbalance (max/mean)"}
		for range tl.Tracks {
			cells = append(cells, "-")
		}
		rows = append(rows, append(cells, fmt.Sprintf("%.2f", imb)))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "timeline: protocol=%s scheduler=%s seed=%d shards=%d sample-every=%d\n",
		tl.Protocol, tl.Scheduler, tl.Seed, tl.Shards, tl.SampleEvery)
	b.WriteString(RenderTable(rows))
	if len(r.Phases) > 0 {
		b.WriteString("\n")
		prows := [][]string{{"phase", "wall ms", "count"}}
		for _, p := range r.Phases {
			prows = append(prows, []string{p.Name, fmt.Sprintf("%.2f", p.WallMS), fmt.Sprintf("%d", p.Count)})
		}
		b.WriteString(RenderTable(prows))
	}
	return b.String()
}

func renderQ(v float64) string {
	if v != v { // NaN: no samples on this track
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

// worstImbalance returns the maximum over supersteps of max/mean per-shard
// deliveries, skipping empty rows; ok is false when nothing was delivered or
// the run had a single shard (imbalance is vacuous).
func worstImbalance(rows []SuperstepRow) (float64, bool) {
	worst, any := 0.0, false
	for _, r := range rows {
		if len(r.Deliveries) < 2 {
			continue
		}
		xs := make([]float64, len(r.Deliveries))
		for i, d := range r.Deliveries {
			xs[i] = float64(d)
		}
		mean := stats.Mean(xs)
		if mean <= 0 {
			continue
		}
		if imb := stats.Max(xs) / mean; !any || imb > worst {
			worst, any = imb, true
		}
	}
	return worst, any
}

// PromSeries is one time series of a PromMetric: ordered label pairs (the
// renderer escapes and quotes the values) and a pre-formatted sample value.
type PromSeries struct {
	Labels [][2]string
	Value  string
}

// PromMetric is one metric family in the Prometheus text exposition format:
// a HELP/TYPE header followed by its series. RenderProm is the shared
// renderer behind Report.Prometheus and the run server's /metrics endpoint.
type PromMetric struct {
	Name   string
	Help   string
	Kind   string // "counter" | "gauge"
	Series []PromSeries
}

// RenderProm renders metric families in the Prometheus text exposition
// format, in input order.
func RenderProm(metrics []PromMetric) string {
	var b strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind)
		for _, s := range m.Series {
			b.WriteString(m.Name)
			if len(s.Labels) > 0 {
				b.WriteString("{")
				for i, kv := range s.Labels {
					if i > 0 {
						b.WriteString(",")
					}
					fmt.Fprintf(&b, "%s=%q", kv[0], promEscape(kv[1]))
				}
				b.WriteString("}")
			}
			b.WriteString(" ")
			b.WriteString(s.Value)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Prometheus renders the report in the Prometheus text exposition format:
// per-shard counters labeled by shard, run identity as an info gauge, and
// the wall-clock phases as gauges — the export surface a run server scrapes.
func (r *Report) Prometheus() string {
	if r == nil || r.Timeline == nil {
		return ""
	}
	tl := r.Timeline
	var ms []PromMetric
	ms = append(ms, PromMetric{
		Name: "anonnet_run_info",
		Help: "Identity of the run the telemetry below describes.",
		Kind: "gauge",
		Series: []PromSeries{{Labels: [][2]string{
			{"protocol", tl.Protocol},
			{"scheduler", tl.Scheduler},
			{"seed", fmt.Sprintf("%d", tl.Seed)},
			{"shards", fmt.Sprintf("%d", tl.Shards)},
		}, Value: "1"}},
	})

	counter := func(name, help string, get func(Totals) int64) {
		m := PromMetric{Name: name, Help: help, Kind: "counter"}
		for _, t := range tl.Tracks {
			m.Series = append(m.Series, PromSeries{
				Labels: [][2]string{{"shard", fmt.Sprintf("%d", t.Shard)}},
				Value:  fmt.Sprintf("%d", get(t.Totals)),
			})
		}
		ms = append(ms, m)
	}
	counter("anonnet_deliveries_total", "Messages delivered, per shard.",
		func(t Totals) int64 { return t.Deliveries })
	counter("anonnet_sends_total", "Messages metered as sent (dropped ones included), per shard.",
		func(t Totals) int64 { return t.Sends })
	counter("anonnet_drops_total", "Sends discarded by the fault plan, per shard.",
		func(t Totals) int64 { return t.Drops })
	counter("anonnet_crashes_total", "Deliveries consumed by crashed vertices, per shard.",
		func(t Totals) int64 { return t.Crashes })

	peak := PromMetric{
		Name: "anonnet_in_flight_peak",
		Help: "Local high-water mark of queued messages, per shard.",
		Kind: "gauge",
	}
	for _, t := range tl.Tracks {
		peak.Series = append(peak.Series, PromSeries{
			Labels: [][2]string{{"shard", fmt.Sprintf("%d", t.Shard)}},
			Value:  fmt.Sprintf("%d", t.Totals.PeakInFlight),
		})
	}
	ms = append(ms, peak, PromMetric{
		Name:   "anonnet_supersteps_total",
		Help:   "Barrier-to-barrier supersteps (rounds for the synchronous engine).",
		Kind:   "counter",
		Series: []PromSeries{{Value: fmt.Sprintf("%d", len(tl.Supersteps))}},
	})

	if len(r.Phases) > 0 {
		phases := PromMetric{
			Name: "anonnet_phase_wall_seconds",
			Help: "Wall-clock spent in each run phase.",
			Kind: "gauge",
		}
		for _, p := range r.Phases {
			phases.Series = append(phases.Series, PromSeries{
				Labels: [][2]string{{"phase", p.Name}},
				Value:  fmt.Sprintf("%g", p.WallMS/1000),
			})
		}
		ms = append(ms, phases)
	}
	return RenderProm(ms)
}

// promEscape escapes a label value per the text exposition format (the %q
// verb then adds the surrounding quotes and re-escapes backslashes/quotes,
// which matches the format's rules for the names used here).
func promEscape(s string) string { return strings.ReplaceAll(s, "\n", "\\n") }
