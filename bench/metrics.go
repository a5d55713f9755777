package main

// metricDef names one reported metric. End-to-end metrics carry the
// regression bound the benchmark fixes for them; per-layer metrics carry
// the layer they measure and the end-to-end metric (and workload) they
// should move, written down before anything is measured.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd are the metrics a user regenerating the paper's tables sees,
// measured on untraced runs only. Every one is non-zero on every workload.
// The timings are reported at a nominal machine speed (see
// sample.atMachineSpeed). Each bound is three times the largest spread
// (quartile distance over median) seen across ten 30 s runs on different
// seeds, rounded up to a whole percent; setup_s, whose spread is not held
// to its bound, gets the largest.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.21},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.18},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.16},
	{Name: "alloc_mib", Unit: "MiB", Better: "lower", Bound: 0.06},
	{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.18},
}

// workloadLayers are the per-layer metrics read from a traced workload
// run: result structs, the harness's telemetry registry and event hook,
// and harness-side spans. A layer a workload never enters reads 0, so
// every time-valued metric is one every workload produces (the runtime's
// pause and scheduling quantiles) or lives on the ladder, which every
// traced run executes.
var workloadLayers = []metricDef{
	{Name: "study.resolve_frac", Unit: "frac", Better: "lower", Layer: "study", Moves: "wall_s on study"},
	{Name: "study.initial_frac", Unit: "frac", Better: "lower", Layer: "study", Moves: "wall_s on study"},
	{Name: "study.rounds_frac", Unit: "frac", Better: "lower", Layer: "study", Moves: "wall_s on study"},
	{Name: "study.snapshot_frac", Unit: "frac", Better: "lower", Layer: "study", Moves: "wall_s on study"},
	{Name: "study.round_heap_growth_mib", Unit: "MiB", Better: "lower", Layer: "study", Moves: "peak_rss_mib on study"},
	{Name: "run.idle_frac", Unit: "frac", Better: "lower", Layer: "study", Moves: "wall_s and cpu_s on study"},
	{Name: "campaign.wave_max_over_p50", Unit: "ratio", Better: "lower", Layer: "measure", Moves: "wall_s and items_per_s on study"},
	{Name: "campaign.shard_busy_max_over_median", Unit: "ratio", Better: "lower", Layer: "measure", Moves: "wall_s and items_per_s on study"},
	{Name: "campaign.alloc_kib_per_probe", Unit: "KiB", Better: "lower", Layer: "measure", Moves: "alloc_mib and cpu_s on study and faults"},
	{Name: "probe.transactions_per_probe", Unit: "ratio", Better: "lower", Layer: "core", Moves: "cpu_s on study"},
	{Name: "probe.retries", Unit: "count", Better: "lower", Layer: "core", Moves: "items_per_s on faults"},
	{Name: "probe.retry_exhausted", Unit: "count", Better: "lower", Layer: "core", Moves: "items_per_s on faults"},
	{Name: "probe.breaker_skips", Unit: "count", Better: "lower", Layer: "core", Moves: "items_per_s on faults"},
	{Name: "run.fail_frac", Unit: "frac", Better: "lower", Layer: "core", Moves: "items_per_s on faults"},
	{Name: "smtp.sessions_per_probe", Unit: "ratio", Better: "lower", Layer: "smtp", Moves: "cpu_s on study"},
	{Name: "dns.client.retries", Unit: "count", Better: "lower", Layer: "dnsclient", Moves: "items_per_s on faults"},
	{Name: "dns.client.tcp_fallbacks", Unit: "count", Better: "lower", Layer: "dnsclient", Moves: "items_per_s on faults"},
	{Name: "dns.client.failures", Unit: "count", Better: "lower", Layer: "dnsclient", Moves: "items_per_s on faults"},
	{Name: "dns.server.queries_per_item", Unit: "ratio", Better: "lower", Layer: "dnsserver", Moves: "cpu_s on study and spoof"},
	{Name: "dnsserver.template_hit_ratio", Unit: "ratio", Better: "higher", Layer: "dnsserver", Moves: "cpu_s on spoof"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower", Layer: "checkpoint", Moves: "wall_s on checkpoint"},
	{Name: "checkpoint.resume_frac", Unit: "ratio", Better: "lower", Layer: "checkpoint", Moves: "wall_s on checkpoint"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "obs", Moves: "cpu_s on study"},
	{Name: "runtime.gc_pause_p99_ms", Unit: "ms", Better: "lower", Layer: "obs", Moves: "wall_s on study"},
	{Name: "runtime.sched_latency_p99_us", Unit: "us", Better: "lower", Layer: "obs", Moves: "wall_s on study"},
	{Name: "faults.injected", Unit: "count", Better: "lower", Layer: "faults", Moves: "none (sanity count on faults)"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", Layer: "bench", Moves: "none (cost of the harness's own spans)"},
}

// rungSpec describes one ladder rung's reported metrics. Rungs timed
// singly at least minTimedOps times also report p50 and p99.
type rungSpec struct {
	Name      string
	Unit      string
	Quantiles bool
	Layer     string
	Moves     string
}

// rungSpecs lists the ladder from the bottom layer up. A rung's self cost
// is its time minus the rung below it in the same chain.
var rungSpecs = []rungSpec{
	{"dnsmsg.decode_ns", "ns", true, "dnsmsg", "cpu_s on study and spoof"},
	{"dnsmsg.encode_ns", "ns", true, "dnsmsg", "cpu_s on study and spoof"},
	{"dnsserver.serve_fast_ns", "ns", true, "dnsserver", "cpu_s on spoof"},
	{"dnsserver.serve_slow_ns", "ns", true, "dnsserver", "cpu_s on spoof"},
	{"netsim.udp_rtt_us", "us", true, "netsim", "wall_s on study"},
	{"dnsclient.lookup_us.client", "us", true, "dnsclient", "cpu_s on study"},
	{"dnsclient.lookup_us.pipeline", "us", true, "dnsclient", "cpu_s on study"},
	{"dnsclient.lookup_us.flight", "us", true, "dnsclient", "cpu_s on study"},
	{"dnsclient.lookup_us.cache", "us", true, "dnsclient", "cpu_s on study"},
	{"spf.check_host_ns", "ns", true, "spf", "items_per_s on spoof"},
	{"spf.check_host_wire_us", "us", true, "spf", "items_per_s on spoof"},
	{"smtp.session_us", "us", true, "smtp", "items_per_s on study"},
	{"core.testip_us", "us", true, "core", "items_per_s on study"},
	{"core.verdict_us", "us", true, "core", "items_per_s on spoof"},
	{"checkpoint.commit_us", "us", false, "checkpoint", "wall_s on checkpoint"},
}

// ladderExtras are the ladder's derived numbers: self costs, ratios from
// the harness registry, and rates.
var ladderExtras = []metricDef{
	{Name: "mta.validate_us", Unit: "us", Better: "lower", Layer: "mta", Moves: "items_per_s on study"},
	{Name: "dnsclient.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "dnsclient", Moves: "cpu_s on study"},
	{Name: "dnsclient.flight_coalesced_ratio", Unit: "ratio", Better: "higher", Layer: "dnsclient", Moves: "cpu_s on study"},
	{Name: "dnsclient.pipeline_coalesced_ratio", Unit: "ratio", Better: "higher", Layer: "dnsclient", Moves: "cpu_s on study"},
	{Name: "trace.campaign_overhead_frac", Unit: "frac", Better: "lower", Layer: "trace", Moves: "none (tracing is off in every workload)"},
	{Name: "checkpoint.replay_mib_per_s", Unit: "MiB/s", Better: "higher", Layer: "checkpoint", Moves: "wall_s on checkpoint"},
}

// perLayer is the full per-layer catalogue in report order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), workloadLayers...)
	for _, r := range rungSpecs {
		out = append(out, metricDef{Name: r.Name, Unit: r.Unit, Better: "lower", Layer: r.Layer, Moves: r.Moves})
		if r.Quantiles {
			out = append(out,
				metricDef{Name: r.Name + ".p50", Unit: r.Unit, Better: "lower", Layer: r.Layer, Moves: r.Moves},
				metricDef{Name: r.Name + ".p99", Unit: r.Unit, Better: "lower", Layer: r.Layer, Moves: r.Moves})
		}
		out = append(out, metricDef{Name: r.Name + ".allocs_per_op", Unit: "count", Better: "lower", Layer: r.Layer, Moves: "alloc_mib on study"})
	}
	return append(out, ladderExtras...)
}
