package main

// metricDef is one reported metric. Bound (end-to-end metrics only) is the
// share of the parent's median by which the metric may get worse before a
// change counts as a regression. BENCHMARK.json at the repository root lists
// the same definitions; TestBenchmarkJSONInSync keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the timed pass's metrics, reported by every workload. An op is
// one protocol run on the engine workloads and one HTTP request on serve_mix.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced pass's metrics. Every workload reports all of them;
// a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.cut_edges", Unit: "count", Better: "lower"},
	{Name: "graph.effective_cut_edges", Unit: "count", Better: "lower"},
	{Name: "sim.sched.calls", Unit: "count", Better: "lower"},
	{Name: "sim.sched.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "sim.sched.share", Unit: "ratio", Better: "lower"},
	{Name: "msgq.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "msgq.share", Unit: "ratio", Better: "lower"},
	{Name: "msgq.peak_in_flight", Unit: "count", Better: "lower"},
	{Name: "protocol.intern_ns_per_send", Unit: "ns", Better: "lower"},
	{Name: "protocol.allocs_per_send", Unit: "count", Better: "lower"},
	{Name: "protocol.share", Unit: "ratio", Better: "lower"},
	{Name: "protocol.comm_bits", Unit: "bit", Better: "lower"},
	{Name: "protocol.alphabet_size", Unit: "count", Better: "lower"},
	{Name: "protocol.max_msg_bits", Unit: "bit", Better: "lower"},
	{Name: "core.receives", Unit: "count", Better: "lower"},
	{Name: "core.ns_per_receive", Unit: "ns", Better: "lower"},
	{Name: "core.share", Unit: "ratio", Better: "lower"},
	{Name: "core.allocs_per_receive", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_receive", Unit: "B", Better: "lower"},
	{Name: "core.sends_per_receive", Unit: "ratio", Better: "lower"},
	{Name: "sim.faults.ns_per_check", Unit: "ns", Better: "lower"},
	{Name: "sim.faults.share", Unit: "ratio", Better: "lower"},
	{Name: "sim.faults.dropped", Unit: "count", Better: "lower"},
	{Name: "sim.faults.churn_events", Unit: "count", Better: "lower"},
	{Name: "sim.faults.max_restabilize", Unit: "count", Better: "lower"},
	{Name: "sim.deliveries", Unit: "count", Better: "lower"},
	{Name: "sim.loop_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.supersteps", Unit: "count", Better: "lower"},
	{Name: "shard.steals", Unit: "count", Better: "lower"},
	{Name: "shard.stolen_edges", Unit: "count", Better: "lower"},
	{Name: "shard.speedup_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.req_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.hits", Unit: "count", Better: "higher"},
	{Name: "serve.misses", Unit: "count", Better: "lower"},
	{Name: "serve.joins", Unit: "count", Better: "higher"},
	{Name: "serve.executions", Unit: "count", Better: "lower"},
	{Name: "serve.saturated", Unit: "count", Better: "lower"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "anonnet.do_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.span_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// value is one reported metric value with its unit, the shape of every
// metric in the printed summary line and in results files.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the defined units to measured values, filling every
// defined metric the pass did not set with 0.
func withUnits(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
