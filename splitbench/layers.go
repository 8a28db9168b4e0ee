package main

// layerMetric is one per-layer metric of the traced run. A workload
// reports 0 for a layer it does not exercise or cannot separate.
type layerMetric struct {
	name, unit, better string
}

// perLayerMetrics lists every per-layer metric in the order BENCHMARK.json
// lists them; every traced run prints all of them.
var perLayerMetrics = []layerMetric{
	// table-sweep: per composed cell (mean over cells).
	{"attack.proximity_s", "s", "lower"},
	{"locking.atpglock_s", "s", "lower"},
	{"lec.check_s", "s", "lower"},
	{"lec.aig_nodes", "count", "lower"},
	{"lec.sweep_merges", "count", "lower"},
	{"lec.sat_pairs", "count", "lower"},
	{"lec.problem_clauses", "count", "lower"},
	{"place.place_s", "s", "lower"},
	{"route.route_s", "s", "lower"},
	{"split.split_s", "s", "lower"},
	{"split.regular_pins", "count", "lower"},
	{"split.key_pins", "count", "lower"},
	{"metrics.functional_s", "s", "lower"},
	{"flow.cell_s", "s", "lower"},
	{"flow.span_coverage", "ratio", "higher"},
	// daemon-mix: medians per job; counts per round, the journal per job.
	{"server.submit_s", "s", "lower"},
	{"server.queue_wait_s", "s", "lower"},
	{"flow.prepare_s", "s", "lower"},
	{"server.hit_s", "s", "lower"},
	{"flow.lock_job_s", "s", "lower"},
	{"flow.verify_job_s", "s", "lower"},
	{"attack.sat_job_s", "s", "lower"},
	{"server.cache_hits", "count/round", "higher"},
	{"server.cache_misses", "count/round", "lower"},
	{"server.cache_coalesced", "count/round", "lower"},
	{"server.rejected", "count/round", "lower"},
	{"server.journal_bytes", "bytes/job", "lower"},
	{"attack.sat_iterations", "count", "lower"},
	{"attack.oracle_evals", "count", "lower"},
	{"attack.solve_calls", "count", "lower"},
	// ideal-attack.
	{"flow.ideal_setup_s", "s", "lower"},
	{"sim.compile_s", "s", "lower"},
	{"sim.compare_s", "s", "lower"},
	{"ideal.runs", "count/round", "higher"},
	{"ideal.err_run_share", "ratio", "higher"},
	// Every workload.
	{"trace.overhead", "ratio", "lower"},
	{"trace.spans", "count/round", "lower"},
}
