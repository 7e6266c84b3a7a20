package main

// endToEndMetrics are what a user of the system sees, reported by every
// untraced run; BENCHMARK.json lists the same names with their bounds.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"stage_p50_us", "us"},
	{"job_p50_us", "us"},
	{"hit_ratio", "ratio"},
	{"byte_miss_ratio", "ratio"},
	{"success_frac", "ratio"},
	{"allocs_per_job", "count"},
	{"cpu_us_per_job", "us"},
	{"heap_peak_mb", "MB"},
}

// perLayerMetrics are reported by every traced run, named
// <module>.<metric>; README.md maps each to the end-to-end metric it
// should move.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.admit_us_p50", "us"},
	{"core.admit_us_p99", "us"},
	{"core.admit_busy_frac", "ratio"},
	{"core.select_rounds_per_job", "count"},
	{"core.select_candidates_mean", "count"},
	{"history.entries", "count"},
	{"cache.loaded_files_per_job", "count"},
	{"cache.evicted_files_per_job", "count"},
	{"cache.reload_frac", "ratio"},
	{"srm.server_stage_us_p50", "us"},
	{"srm.server_stage_us_p99", "us"},
	{"srm.wire_us_p50", "us"},
	{"srm.wire_us_p99", "us"},
	{"srm.server_release_us_p50", "us"},
	{"srm.stage_us_p99", "us"},
	{"srm.job_us_p99", "us"},
	{"srm.release_us_p50", "us"},
	{"srm.release_us_p99", "us"},
	{"srm.unattributed_us_p50", "us"},
	{"srm.unattributed_us_p99", "us"},
	{"srm.wait_frac", "ratio"},
	{"srm.wait_us_p99", "us"},
	{"srm.store_retries", "count"},
	{"store.sync_us_p50", "us"},
	{"store.sync_us_p99", "us"},
	{"store.source_us_p50", "us"},
	{"store.write_mb_per_s", "MB/s"},
	{"store.read_us_p50", "us"},
	{"store.read_us_p99", "us"},
	{"store.read_mb_per_s", "MB/s"},
	{"store.files_removed_per_job", "count"},
	{"store.disk_mb_end", "MB"},
	{"simulate.admit_share", "ratio"},
	{"workload.gen_s", "s"},
	{"workload.cache_in_requests", "count"},
	{"workload.pool_bytes_over_cache", "ratio"},
	{"runtime.gc_cycles_per_kjob", "count"},
	{"runtime.gc_pause_us_p99", "us"},
	{"runtime.mutex_wait_us_per_job", "us"},
	{"trace.overhead_frac", "ratio"},
	{"ladder.admit_us", "us"},
	{"ladder.admit_allocs", "count"},
	{"ladder.stage_us", "us"},
	{"ladder.stage_allocs", "count"},
	{"ladder.wire_us", "us"},
	{"ladder.wire_allocs", "count"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, t := range [][]struct{ name, unit string }{endToEndMetrics, perLayerMetrics} {
		for _, e := range t {
			m[e.name] = e.unit
		}
	}
	return m
}()
