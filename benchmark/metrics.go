package main

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// reference median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is measured with tracing off, on every workload. Failures are not
// a metric here: every result carries attempted and failed counts, and a run
// with a failed output check is not correct.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iters_per_s", "1/s", "higher", 0.20},
	{"iter_ms_p50", "ms", "lower", 0.20},
	{"iter_ms_p90", "ms", "lower", 0.25},
	{"cpu_ms_per_iter", "ms", "lower", 0.20},
	{"alloc_mb_per_iter", "MB", "lower", 0.10},
	{"improvement_pct", "%", "higher", 0.25},
}

// perLayer is measured in a traced run: the in-situ numbers come from the
// traced workload, the rest from probes that call one public function of a
// layer at a fixed operating point (probes.go).
var perLayer = []metricDef{
	{"core.model_update_ms_per_iter", "ms", "lower", 0},
	{"core.recommend_ms_per_iter", "ms", "lower", 0},
	{"core.replay_ms_per_iter", "ms", "lower", 0},
	{"core.step_self_ms_per_iter", "ms", "lower", 0},
	{"core.sla_met_pct", "%", "higher", 0},
	{"core.drift_events", "count", "lower", 0},
	{"core.drift_resets", "count", "lower", 0},
	{"core.iters_to_best", "count", "lower", 0},
	{"core.fleet_busy_share", "ratio", "higher", 0},
	{"core.fleet_step_wait_ms_p90", "ms", "lower", 0},

	{"gp.fit_ms.n200", "ms", "lower", 0},
	{"gp.fit_append_us.n200", "us", "lower", 0},
	{"gp.hyper_search_ms.n200", "ms", "lower", 0},
	{"gp.predict_batch_us.n200", "us", "lower", 0},
	{"gp.sparse_fit_ms.n320", "ms", "lower", 0},
	{"gp.sparse_anchors", "count", "lower", 0},
	{"gp.sparse_reselects", "count", "lower", 0},
	{"gp.hyper_search_busy_ms_per_iter", "ms", "lower", 0},

	{"bo.trigp_fit_ms.full", "ms", "lower", 0},
	{"bo.trigp_fit_ms.warm", "ms", "lower", 0},
	{"bo.optimize_acq_ms", "ms", "lower", 0},
	{"bo.cei_batch_us", "us", "lower", 0},
	{"bo.optimize_acq_busy_ms_per_iter", "ms", "lower", 0},

	{"meta.dynamic_weights_ms.n34", "ms", "lower", 0},
	{"meta.ensemble_predict_batch_us.n34", "us", "lower", 0},
	{"meta.static_weights_us.n34", "us", "lower", 0},
	{"meta.corpus_activate_ms.n1000", "ms", "lower", 0},
	{"meta.index_query_us.n1000", "us", "lower", 0},
	{"meta.corpus_fit_ms", "ms", "lower", 0},
	{"meta.shared_fit_hit_rate", "ratio", "higher", 0},
	{"meta.shared_fit_misses", "count", "lower", 0},
	{"meta.corpus_resident", "count", "lower", 0},

	{"repo.save_ms", "ms", "lower", 0},
	{"repo.load_ms", "ms", "lower", 0},
	{"repo.open_lazy_ms", "ms", "lower", 0},
	{"repo.task_load_us", "us", "lower", 0},
	{"repo.file_kb", "KB", "lower", 0},

	{"workload.characterizer_train_ms", "ms", "lower", 0},
	{"workload.meta_feature_ms", "ms", "lower", 0},
	{"workload.generate_us_per_stmt", "us", "lower", 0},
	{"replay.extract_templates_ms", "ms", "lower", 0},

	{"dbsim.eval_us", "us", "lower", 0},

	{"minidb.measure_ms", "ms", "lower", 0},
	{"minidb.open_ms", "ms", "lower", 0},
	{"minidb.load_ms_per_krow", "ms", "lower", 0},
	{"minidb.close_ms", "ms", "lower", 0},
	{"minidb.exec_us_p50", "us", "lower", 0},
	{"minidb.exec_us_p99", "us", "lower", 0},
	{"minidb.stmts_per_s.c1", "1/s", "higher", 0},
	{"minidb.stmts_per_s.cN", "1/s", "higher", 0},
	{"minidb.pool_hit_ratio", "ratio", "higher", 0},
	{"minidb.phys_reads_per_stmt", "count", "lower", 0},
	{"minidb.phys_writes_per_stmt", "count", "lower", 0},
	{"minidb.wal_syncs_per_commit", "count", "lower", 0},
	{"minidb.wal_group_commits", "count", "higher", 0},
	{"minidb.lock_waits", "count", "lower", 0},
	{"minidb.plan_cache_hit_rate", "ratio", "higher", 0},

	{"mat.chol_factor_ms.n256", "ms", "lower", 0},
	{"mat.chol_append_us.n256", "us", "lower", 0},
	{"mat.solve_lower_batch_us.n256", "us", "lower", 0},

	{"obs.traced_iters_per_s", "1/s", "higher", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.jsonl_overhead_pct", "%", "lower", 0},
	{"obs.events_per_iter", "count", "lower", 0},
}
