package main

// metric is one registered name. BENCHMARK.json lists exactly endToEnd
// and perLayer (TestBenchmarkJSONMatchesRegistry keeps the two in step).
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"; unset on namedMetrics
	Bound  float64 // end-to-end only
}

// endToEnd are the metrics every workload reports, so every workload can
// be held to every bound. primary and secondary are the two operations a
// workload's user waits on (the `why` of each workload names them):
//
//	workload    primary (p50, tail)             secondary (p50, tail)
//	paths-miss  GET /api/paths (p99)            GET /api/pathset (p99)
//	paths-hot   GET /api/paths (p99)            GET /api/pathset (p95)
//	churn       freshness, insert→served (p95)  GET /api/paths (p99)
//	intent-mix  POST /api/intent (p99)          GET /api/paths (p99)
//	campaign    repeat: start→stored (p99)      cold: start→stored (p99)
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ok_per_s", "1/s", "higher", 0.20},
	{"primary_p50_ms", "ms", "lower", 0.20},
	{"primary_tail_ms", "ms", "lower", 0.25},
	{"secondary_p50_ms", "ms", "lower", 0.20},
	{"secondary_tail_ms", "ms", "lower", 0.25},
}

// namedMetrics are the same window's numbers under the issue's own
// per-workload names; a workload prints those it exercises. On traced
// runs they are also reported as window.<name> per-layer metrics.
var namedMetrics = []metric{
	{Name: "ok_rps", Unit: "1/s"},
	{Name: "paths_p50_ms", Unit: "ms"},
	{Name: "paths_p99_ms", Unit: "ms"},
	{Name: "pathset_p50_ms", Unit: "ms"},
	{Name: "pathset_p95_ms", Unit: "ms"},
	{Name: "pathset_p99_ms", Unit: "ms"},
	{Name: "intent_p50_ms", Unit: "ms"},
	{Name: "intent_p99_ms", Unit: "ms"},
	{Name: "fresh_p50_ms", Unit: "ms"},
	{Name: "fresh_p90_ms", Unit: "ms"},
	{Name: "fresh_p95_ms", Unit: "ms"},
	{Name: "campaign_cold_paths_per_s", Unit: "1/s"},
	{Name: "campaign_repeat_paths_per_s", Unit: "1/s"},
	{Name: "fail_ratio", Unit: "ratio"},
}

// perLayer are the per-layer metrics, measured from outside by the
// traced pass and the probes. README.md has, for each, the end-to-end
// metric it should move and on which workload.
var perLayer = []metric{
	{Name: "http.floor_us_p50", Unit: "us", Better: "lower"},
	{Name: "http.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "http.traced_us_p50", Unit: "us", Better: "lower"},
	{Name: "http.window_us_p50", Unit: "us", Better: "lower"},

	{Name: "cluster.serve_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.self_miss_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.shed", Unit: "count", Better: "lower"},
	{Name: "cluster.rate_limited", Unit: "count", Better: "lower"},
	{Name: "cluster.stale_cells", Unit: "count", Better: "lower"},
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},

	{Name: "upin.paths_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.pathset_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.resp_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "upin.intent_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.intent_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.decide_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.trace_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.record_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.verify_us_p50", Unit: "us", Better: "lower"},
	{Name: "upin.recommend_us_p50", Unit: "us", Better: "lower"},

	{Name: "selection.select_us_p50", Unit: "us", Better: "lower"},
	{Name: "selection.select_us_p99", Unit: "us", Better: "lower"},
	{Name: "selection.selectset_us_p50", Unit: "us", Better: "lower"},
	{Name: "selection.select_alloc_kb", Unit: "kb", Better: "lower"},
	{Name: "selection.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "selection.fold_us_p50", Unit: "us", Better: "lower"},
	{Name: "selection.rebuild_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "selection.rebuilds", Unit: "count", Better: "lower"},
	{Name: "selection.folds", Unit: "count", Better: "lower"},
	{Name: "selection.coalesced", Unit: "count", Better: "lower"},

	{Name: "docdb.insert_cell_us_p50", Unit: "us", Better: "lower"},
	{Name: "docdb.insert_one_us_p50", Unit: "us", Better: "lower"},
	{Name: "docdb.bulk_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "docdb.delete_us_p50", Unit: "us", Better: "lower"},
	{Name: "docdb.stats_docs_end", Unit: "count", Better: "lower"},

	{Name: "measure.collect_cold_s", Unit: "s", Better: "lower"},
	{Name: "measure.collect_repeat_s", Unit: "s", Better: "lower"},
	{Name: "measure.cells_s", Unit: "s", Better: "lower"},
	{Name: "measure.sequential_paths_per_s", Unit: "1/s", Better: "higher"},
	{Name: "measure.paths_tested", Unit: "count", Better: "higher"},
	{Name: "measure.stats_stored", Unit: "count", Better: "higher"},
	{Name: "measure.failures", Unit: "count", Better: "lower"},

	{Name: "segment.discover_ms", Unit: "ms", Better: "lower"},
	{Name: "pathmgr.combine_cold_us_p50", Unit: "us", Better: "lower"},
	{Name: "pathmgr.combine_cached_us_p50", Unit: "us", Better: "lower"},
	{Name: "sciond.showpaths_us_p50", Unit: "us", Better: "lower"},
	{Name: "sciond.resolve_us_p50", Unit: "us", Better: "lower"},
	{Name: "simnet.fork_us_p50", Unit: "us", Better: "lower"},

	{Name: "proc.alloc_kb_per_op", Unit: "kb", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.rss_mb_end", Unit: "mb", Better: "lower"},

	{Name: "window.ok_rps", Unit: "1/s", Better: "higher"},
	{Name: "window.paths_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "window.paths_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "window.pathset_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "window.pathset_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "window.pathset_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "window.intent_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "window.intent_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "window.fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "window.fresh_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "window.fresh_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "window.campaign_cold_paths_per_s", Unit: "1/s", Better: "higher"},
	{Name: "window.campaign_repeat_paths_per_s", Unit: "1/s", Better: "higher"},
	{Name: "window.fail_ratio", Unit: "ratio", Better: "lower"},
}

func unitOf(list []metric, name string) string {
	for _, m := range list {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("bench: unregistered metric " + name) // a typo in this package, nothing else
}
