package shard

import (
	"strconv"
	"strings"
	"testing"

	"borg/internal/obs"
	"borg/internal/serve"
)

// pointsByKey indexes a registry snapshot by name+labels.
func pointsByKey(r *obs.Registry) map[string]obs.MetricPoint {
	out := make(map[string]obs.MetricPoint)
	for _, p := range r.Snapshot() {
		out[p.Name+p.Labels] = p
	}
	return out
}

// TestShardMetrics drives an instrumented 3-shard tier and checks the
// tier series: routed counters summing to the op count, per-shard serve
// series labelled shard="i", merge latency observed only on real folds,
// memo hits counted, and the skew gauge in its [1, N] range.
func TestShardMetrics(t *testing.T) {
	j, stream, feats := tenantSchema(21, 300, 8, 5)
	srv, err := New(j, "Sales", feats, Config{
		Config: serve.Config{},
		Shards: 3, PartitionBy: "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := srv.Metrics()
	if reg == nil {
		t.Fatal("instrumented tier returned nil Metrics()")
	}
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	pts := pointsByKey(reg)

	var routed float64
	for i := 0; i < 3; i++ {
		key := `borg_shard_routed_total{shard="` + strconv.Itoa(i) + `"}`
		p, ok := pts[key]
		if !ok {
			t.Fatalf("missing %s", key)
		}
		routed += p.Value
	}
	if routed != float64(len(stream)) {
		t.Errorf("routed total = %v, want %d", routed, len(stream))
	}

	// Per-shard serve series live in the same registry under shard="i".
	for i := 0; i < 3; i++ {
		key := `borg_serve_inserts_total{shard="` + strconv.Itoa(i) + `"}`
		if _, ok := pts[key]; !ok {
			t.Errorf("missing per-shard serve series %s", key)
		}
	}

	if p := pts["borg_shard_skew"]; p.Value < 1 || p.Value > 3 {
		t.Errorf("skew = %v, want within [1, 3]", p.Value)
	}

	// First merged read folds; repeats hit the memo.
	before := pts["borg_shard_merges_total"].Value
	srv.Snapshot()
	srv.Snapshot()
	srv.Snapshot()
	pts = pointsByKey(reg)
	folds := pts["borg_shard_merges_total"].Value - before
	if folds < 1 {
		t.Errorf("no fold counted across merged reads")
	}
	if hits := pts["borg_shard_merge_memo_hits_total"].Value; hits < 2 {
		t.Errorf("memo hits = %v, want >= 2", hits)
	}
	if p := pts["borg_shard_merge_ns"]; p.Count == 0 {
		t.Errorf("merge_ns never observed")
	}

	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `borg_serve_queue_wait_ns_count{shard="1"}`) {
		t.Errorf("exposition missing labelled per-shard histogram")
	}
}

// TestShardMetricsOff pins the control arm across the tier.
func TestShardMetricsOff(t *testing.T) {
	j, _, feats := tenantSchema(4, 20, 4, 3)
	srv, err := New(j, "Sales", feats, Config{
		Config: serve.Config{MetricsOff: true},
		Shards: 2, PartitionBy: "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Metrics() != nil {
		t.Fatal("MetricsOff tier returned a registry")
	}
}
