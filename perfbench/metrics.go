package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"resident_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload never enters reports 0.
var perLayer = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"lqp.plan_us", "us"},
	{"lqp.index_path_frac", "ratio"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.invalidations", "count"},
	{"engine.residual_us", "us"},
	{"server.handler_us", "us"},
	{"server.transport_us", "us"},
	{"server.stream_rows_per_s", "rows/s"},
	{"index.probe_us", "us"},
	{"index.rows_per_probe", "rows"},
	{"govern.admitted", "count"},
	{"govern.rejected", "count"},
	{"govern.queued_peak", "count"},
	{"storage.ddl_ms", "ms"},
	{"storage.wal_fsyncs_per_ddl", "count"},
	{"storage.wal_bytes_per_ddl", "bytes"},
	{"storage.dir_bytes", "bytes"},
	{"storage.open_s", "s"},
	{"scan.self_ms", "ms"},
	{"scan.bytes_per_query", "bytes"},
	{"scan.gbs", "GB/s"},
	{"scan.roofline_frac", "ratio"},
	{"scan.chunks_pruned_frac", "ratio"},
	{"scan.chunks_pruned_frac_clustered", "ratio"},
	{"column.lazy_stats_s", "s"},
	{"column.cluster_unsorted_s", "s"},
	{"pqp.join.self_ms", "ms"},
	{"pqp.join.build_rows", "rows"},
	{"pqp.join.bloom_pass_ratio", "ratio"},
	{"pqp.group.self_ms", "ms"},
	{"pqp.group.groups", "count"},
	{"pqp.sort.self_ms", "ms"},
	{"pqp.agg.self_ms", "ms"},
	{"pqp.project.self_ms", "ms"},
	{"pqp.other.self_ms", "ms"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"host.mem_read_gbs", "GB/s"},
	{"host.scalar_ns", "ns"},
	{"trace.overhead_frac", "ratio"},
	{"trace.accounted_frac", "ratio"},
	{"latency_p95_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"latency_samples", "count"},
	{"write_latency_p50_ms", "ms"},
	{"failed_frac", "ratio"},
}
