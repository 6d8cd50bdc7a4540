package main

// catalogEntry is one metric the benchmark reports. End-to-end entries
// carry the bound by which a change may worsen their median; per-layer
// entries have none. BENCHMARK.json lists the same entries (a test
// keeps the two in step).
type catalogEntry struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of VisClean waits for or gets, printed by
// every untraced run of every workload.
var endToEnd = []catalogEntry{
	{"setup_s", "s", "lower", 0.25},
	{"question_wait_ms.p50", "ms", "lower", 0.25},
	{"question_wait_ms.p90", "ms", "lower", 0.25},
	{"refresh_ms.p50", "ms", "lower", 0.25},
	{"refresh_ms.p90", "ms", "lower", 0.25},
	{"iter_per_s", "1/s", "higher", 0.25},
	{"session_mb", "MB", "lower", 0.15},
}

// perLayer is printed by every traced run. A metric the workload does
// not exercise (service calls on a pipeline workload, say) reads 0.
var perLayer = []catalogEntry{
	{Name: "benefit.annotate_ms", Unit: "ms", Better: "lower"},
	{Name: "benefit.evals_per_iter", Unit: "count", Better: "lower"},
	{Name: "benefit.memo_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "benefit.delta_accept_frac", Unit: "fraction", Better: "higher"},
	{Name: "pipeline.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.detect_cache_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "erg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cqgselect.select_ms", Unit: "ms", Better: "lower"},
	{Name: "erg.cqg_vertices", Unit: "count", Better: "higher"},
	{Name: "vql.view_ms", Unit: "ms", Better: "lower"},
	{Name: "distance.ms", Unit: "ms", Better: "lower"},
	{Name: "em.train_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.questions_per_iter", Unit: "count", Better: "higher"},
	{Name: "pipeline.unanswered_frac", Unit: "fraction", Better: "lower"},
	{Name: "pipeline.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb_per_iter", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "par.fanouts_per_iter", Unit: "count", Better: "lower"},
	{Name: "par.busy_frac", Unit: "fraction", Better: "higher"},
	{Name: "service.create_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "artifact.bytes", Unit: "bytes", Better: "lower"},
	{Name: "datagen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "service.migrate_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "service.migrate_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "service.detach_ms", Unit: "ms", Better: "lower"},
	{Name: "service.attach_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "service.persist_ms", Unit: "ms", Better: "lower"},
	{Name: "service.snapshot_kb", Unit: "KB", Better: "lower"},
	{Name: "service.answer_us", Unit: "us", Better: "lower"},
	{Name: "service.polls_per_question", Unit: "count", Better: "lower"},
	{Name: "service.queue_depth", Unit: "count", Better: "lower"},
	{Name: "obs.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "dist_ratio_final", Unit: "ratio", Better: "lower"},
}
