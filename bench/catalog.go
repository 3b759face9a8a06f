package main

// The metric catalogue: every metric the benchmark can print, with its unit,
// its direction and, for per-layer metrics, the end-to-end metrics it should
// move and on which workloads. BENCHMARK.json at the repository root lists the
// same names, units and directions (bench_test.go keeps the two in step); the
// "moves" targets live only here and in README.md, because BENCHMARK.json
// entries carry exactly name, unit, better (and bound).

// metricDef describes one metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// span, for a per-layer time, names the spans whose self time it sums.
	span  string
	moves []target
}

// target names an end-to-end metric on some workloads.
type target struct {
	metric    string
	workloads []string
}

const (
	wTable = "table_suite"
	wServe = "macro_serve"
	wFlat  = "cold_flat"
	wDeep  = "deep_solve"
)

var allWorkloads = []string{wTable, wServe, wFlat, wDeep}

// endToEnd are the metrics a user of the placer sees; every workload emits
// every one of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "job_p50_ms", unit: "ms", better: "lower"},
	{name: "job_p90_ms", unit: "ms", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
	{name: "flow_dist_mm", unit: "mm", better: "lower"},
}

func on(metric string, workloads ...string) target { return target{metric, workloads} }

// perLayer are the metrics of single layers, measured by the traced replay.
// A layer the workload never calls reads 0.
var perLayer = []metricDef{
	{name: "circuits.generate_s", unit: "s", better: "lower", span: "circuits.generate", moves: []target{on("setup_s", allWorkloads...)}},
	{name: "seqgraph.build_s", unit: "s", better: "lower", span: "seqgraph.build", moves: []target{on("job_p50_ms", wFlat), on("setup_s", wTable)}},
	{name: "seqgraph.nodes", unit: "count", better: "lower", moves: []target{on("job_p50_ms", wFlat)}},
	{name: "hier.tree_s", unit: "s", better: "lower", span: "hier.tree", moves: []target{on("job_p50_ms", wFlat), on("wall_s", wTable)}},
	{name: "graph.bipartite_s", unit: "s", better: "lower", span: "graph.bipartite", moves: []target{on("job_p50_ms", wFlat), on("wall_s", wTable)}},
	{name: "autocluster.cluster_s", unit: "s", better: "lower", span: "autocluster.cluster", moves: []target{on("job_p50_ms", wFlat)}},
	{name: "autocluster.clusters", unit: "count", better: "lower", moves: []target{on("job_p50_ms", wFlat)}},
	{name: "autocluster.levels", unit: "count", better: "lower", moves: []target{on("job_p50_ms", wFlat)}},
	{name: "hidap.submit_ms", unit: "ms", better: "lower", moves: []target{on("job_p50_ms", wFlat)}},
	{name: "hidap.queue_ms", unit: "ms", better: "lower", moves: []target{on("job_p90_ms", wServe)}},
	{name: "hidap.cache_hit_ratio", unit: "ratio", better: "higher", moves: []target{on("job_p50_ms", wServe)}},
	{name: "core.shapecurves_s", unit: "s", better: "lower", span: "core.shapecurves", moves: []target{on("job_p50_ms", wServe), on("wall_s", wDeep)}},
	{name: "core.place_s", unit: "s", better: "lower", span: "core.place", moves: []target{on("job_p50_ms", wServe), on("wall_s", wDeep, wTable)}},
	{name: "core.levels", unit: "count", better: "lower", moves: []target{on("job_p50_ms", wServe), on("wall_s", wDeep)}},
	{name: "layout.solve24_ms", unit: "ms", better: "lower", moves: []target{on("wall_s", wDeep), on("job_p50_ms", wServe)}},
	{name: "layout.solve48_ms", unit: "ms", better: "lower", moves: []target{on("wall_s", wDeep), on("job_p50_ms", wServe)}},
	{name: "sched.submitted", unit: "count", better: "lower", moves: []target{on("wall_s", wDeep)}},
	{name: "sched.steals", unit: "count", better: "lower", moves: []target{on("wall_s", wDeep)}},
	{name: "sched.inject_runs", unit: "count", better: "lower", moves: []target{on("wall_s", wDeep)}},
	{name: "sched.steal_ratio", unit: "ratio", better: "lower", moves: []target{on("wall_s", wDeep)}},
	{name: "indeda.place_s", unit: "s", better: "lower", span: "indeda.place", moves: []target{on("wall_s", wTable)}},
	{name: "handfp.place_s", unit: "s", better: "lower", span: "handfp.place", moves: []target{on("wall_s", wTable)}},
	{name: "place.run_s", unit: "s", better: "lower", span: "place.run", moves: []target{on("wall_s", wTable)}},
	{name: "place.cells_per_s", unit: "1/s", better: "higher", moves: []target{on("wall_s", wTable)}},
	{name: "metrics.wl_s", unit: "s", better: "lower", span: "metrics.wl", moves: []target{on("wall_s", wTable)}},
	{name: "route.estimate_s", unit: "s", better: "lower", span: "route.estimate", moves: []target{on("wall_s", wTable)}},
	{name: "sta.analyze_s", unit: "s", better: "lower", span: "sta.analyze", moves: []target{on("wall_s", wTable)}},
	{name: "go.alloc_mb", unit: "MB", better: "lower", moves: []target{on("jobs_per_s", wServe), on("wall_s", wDeep)}},
	{name: "go.mallocs", unit: "count", better: "lower", moves: []target{on("jobs_per_s", wServe), on("wall_s", wDeep)}},
	{name: "go.gc_cycles", unit: "count", better: "lower", moves: []target{on("jobs_per_s", wServe), on("wall_s", wDeep)}},
	// Quality of the Table II/III suite, as the eval layer scores it; 0 on
	// the macro-only workloads, which never place standard cells.
	{name: "eval.hidap_wl_norm", unit: "ratio", better: "lower"},
	{name: "eval.indeda_wl_norm", unit: "ratio", better: "lower"},
	{name: "eval.suite_wl_m", unit: "m", better: "lower"},
	{name: "eval.hidap_wns_pct", unit: "%", better: "higher"},
	{name: "eval.hidap_grc_pct", unit: "%", better: "lower"},
	// The recorder itself: the traced replay's wall time, against which the
	// self times above add up, and what recording spans costs.
	{name: "trace.replay_s", unit: "s", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
