package main

// metricDef names one metric of BENCHMARK.json. TestBenchmarkJSON checks
// that the two lists below and the file agree.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; what write_p50_ms and model_p50_ms time on each
// workload is in the README's workload table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_ops_s", "ops/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"model_p50_ms", "ms", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is the layer table of a traced run. A metric a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	// cmd/borg-serve
	{"http.overhead_us_per_row", "us", "lower"},
	{"http.bytes_in_per_row", "B", "lower"},
	{"http.bytes_out_per_row", "B", "lower"},
	{"http.status_2xx", "count", "higher"},
	{"http.status_other", "count", "lower"},
	{"http.req_p99_ms", "ms", "lower"},
	// facade borg
	{"facade.enqueue_ns_per_op", "ns", "lower"},
	{"facade.queue_full_share", "share", "lower"},
	// internal/serve
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.queue_wait_p99_ms", "ms", "lower"},
	{"serve.batch_size_mean", "ops", "higher"},
	{"serve.publish_us_per_epoch", "us", "lower"},
	{"serve.epochs", "count", "lower"},
	{"serve.delta_share", "share", "lower"},
	{"serve.mutate_share", "share", "lower"},
	{"serve.publish_share", "share", "lower"},
	{"serve.writer_busy_share", "share", "higher"},
	{"serve.unaccounted_share", "share", "lower"},
	{"serve.flush_ms", "ms", "lower"},
	{"serve.freshness_p99_ms", "ms", "lower"},
	{"serve.freshness_resolution_us", "us", "lower"},
	// the load generator itself
	{"gen.lateness_p99_us", "us", "lower"},
	{"gen.achieved_rate_share", "share", "higher"},
	// internal/ivm, by replay below the facade
	{"ivm.delta_ns_per_op", "ns", "lower"},
	{"ivm.mutate_ns_per_op", "ns", "lower"},
	{"ivm.registry_delta_ns_per_op", "ns", "lower"},
	{"ivm.registry_mutate_ns_per_op", "ns", "lower"},
	{"ivm.snapshot_into_us", "us", "lower"},
	// internal/ring
	{"ring.covar.add_ns", "ns", "lower"},
	{"ring.covar.mul_ns", "ns", "lower"},
	{"ring.covar.lift_ns", "ns", "lower"},
	{"ring.cofactor.add_ns", "ns", "lower"},
	{"ring.cofactor.mul_ns", "ns", "lower"},
	{"ring.cofactor.lift_ns", "ns", "lower"},
	{"ring.cofactor.groups", "count", "lower"},
	// internal/exec
	{"exec.speedup_1_to_n", "ratio", "higher"},
	// internal/shard
	{"shard.merge_us", "us", "lower"},
	{"shard.memo_read_ns", "ns", "lower"},
	{"shard.skew", "ratio", "lower"},
	// internal/plan
	{"plan.replan_ms", "ms", "lower"},
	// internal/ml and the zoo
	{"ml.train_ms.linreg", "ms", "lower"},
	{"ml.train_ms.pca", "ms", "lower"},
	{"ml.train_ms.kmeans", "ms", "lower"},
	{"ml.train_ms.polyreg", "ms", "lower"},
	{"ml.train_ms.chowliu", "ms", "lower"},
	{"ml.train_ms.ctree", "ms", "lower"},
	{"ml.train_ms.svm", "ms", "lower"},
	// core/engine/query: the batch facade
	{"core.covariance_s", "s", "lower"},
	{"core.linreg_s", "s", "lower"},
	{"core.dtree_s", "s", "lower"},
	{"core.kmeans_s", "s", "lower"},
	// Go runtime of the process holding the system under test
	{"rt.gc_cpu_share", "share", "lower"},
	{"rt.gc_pause_max_us", "us", "lower"},
	{"rt.gc_cycles", "count", "lower"},
	{"rt.heap_mb", "MB", "lower"},
	{"rt.bytes_per_op", "B/op", "lower"},
	// the traced run itself
	{"trace.ingest_ops_s", "ops/s", "higher"},
	{"trace.spans", "count", "lower"},
}

func defOf(list []metricDef, name string) metricDef {
	for _, d := range list {
		if d.Name == name {
			return d
		}
	}
	panic("e2e: metric " + name + " is not declared in defs.go")
}
