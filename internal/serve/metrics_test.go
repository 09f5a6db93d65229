package serve

import (
	"strings"
	"testing"
	"time"

	"borg/internal/ivm"
	"borg/internal/obs"
)

// metricPoints indexes a registry snapshot by name+labels.
func metricPoints(r *obs.Registry) map[string]obs.MetricPoint {
	out := make(map[string]obs.MetricPoint)
	for _, p := range r.Snapshot() {
		out[p.Name+p.Labels] = p
	}
	return out
}

// TestServeMetricsEndToEnd ingests a stream through an instrumented
// server and checks every pipeline-stage series carries sane values:
// queue-wait observed per op, batch sizes and phase splits per batch,
// publication timings and epoch gauge tracking the real epoch, applied
// counters matching the snapshot's accounting.
func TestServeMetricsEndToEnd(t *testing.T) {
	j, stream, feats := salesSchema(11, 200, 6, 3)
	reg := obs.NewRegistry()
	srv, err := New(j, "Sales", feats, Config{Obs: reg, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Metrics() != reg {
		t.Fatal("Metrics() did not return the injected registry")
	}
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	pts := metricPoints(reg)

	if n := reg.SeriesCount(); n < 15 {
		t.Errorf("instrumented server registered %d series, want >= 15", n)
	}
	if p := pts["borg_serve_queue_wait_ns"]; p.Count != uint64(len(stream)) {
		t.Errorf("queue_wait count = %d, want %d", p.Count, len(stream))
	}
	if p := pts["borg_serve_inserts_total"]; p.Value != float64(snap.Inserts) {
		t.Errorf("inserts_total = %v, snapshot says %d", p.Value, snap.Inserts)
	}
	if p := pts["borg_serve_epoch"]; p.Value != float64(snap.Epoch) {
		t.Errorf("epoch gauge = %v, snapshot epoch %d", p.Value, snap.Epoch)
	}
	// Nothing was read while the stream went in, so every publication
	// but the first reused the epoch it superseded but one.
	if p := pts["borg_serve_epochs_recycled_total"]; snap.Epoch < 2 || p.Value != float64(snap.Epoch-1) {
		t.Errorf("epochs_recycled_total = %v after %d unread epochs, want %d", p.Value, snap.Epoch, snap.Epoch-1)
	}
	bs := pts["borg_serve_batch_size"]
	if bs.Count == 0 || uint64(bs.Sum) != snap.Inserts {
		t.Errorf("batch_size count=%d sum=%d, want sum %d", bs.Count, bs.Sum, snap.Inserts)
	}
	for _, name := range []string{"borg_serve_apply_delta_ns", "borg_serve_apply_mutate_ns", "borg_serve_publish_ns", "borg_serve_flush_ns"} {
		if p := pts[name]; p.Count == 0 {
			t.Errorf("%s never observed", name)
		}
	}
	if p := pts["borg_serve_queue_depth"]; p.Value != 0 {
		t.Errorf("queue_depth after flush = %v, want 0", p.Value)
	}
	if p := pts["borg_plan_drift"]; p.Value < 1 {
		t.Errorf("drift gauge = %v, want >= 1", p.Value)
	}

	// Rejections: an unknown relation and an arity mismatch count.
	if err := srv.Insert(stream[0]); err != nil {
		t.Fatal(err)
	}
	bad := stream[0]
	bad.Rel = "Nope"
	if err := srv.Insert(bad); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if v := pts["borg_serve_rejected_ops_total"]; v.Value != 0 {
		t.Errorf("rejected before bad op = %v, want 0", v.Value)
	}
	if p := metricPoints(reg)["borg_serve_rejected_ops_total"]; p.Value != 1 {
		t.Errorf("rejected_ops_total = %v, want 1", p.Value)
	}

	// The exposition must render the serve and plan families.
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"borg_serve_queue_wait_ns_count", "borg_serve_epoch ", "borg_plan_replans_total", "borg_serve_epoch_age_seconds", "borg_serve_epochs_recycled_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestMetricsOff pins the control arm: MetricsOff servers expose no
// registry and skip instrumentation entirely.
func TestMetricsOff(t *testing.T) {
	j, stream, feats := salesSchema(3, 50, 4, 2)
	srv, err := New(j, "Sales", feats, Config{MetricsOff: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Metrics() != nil {
		t.Fatal("MetricsOff server returned a registry")
	}
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestReplanMetrics checks the plan-layer series: a root-changing
// replan counts and times, a no-op replan does not.
func TestReplanMetrics(t *testing.T) {
	j, stream, feats := salesSchema(5, 100, 4, 2)
	reg := obs.NewRegistry()
	srv, err := New(j, "", feats, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	cur := srv.Snapshot().Root
	// Pick any other relation as the pinned target to force a rebuild.
	var other string
	for _, name := range srv.relNames {
		if name != cur {
			other = name
			break
		}
	}
	if err := srv.ReplanTo(other); err != nil {
		t.Fatal(err)
	}
	pts := metricPoints(reg)
	if p := pts["borg_plan_replans_total"]; p.Value != 1 {
		t.Errorf("replans_total = %v, want 1", p.Value)
	}
	if p := pts["borg_plan_replan_ns"]; p.Count != 1 {
		t.Errorf("replan_ns count = %d, want 1", p.Count)
	}
	// Replanning to the root we already hold is a no-op.
	if err := srv.ReplanTo(srv.Snapshot().Root); err != nil {
		t.Fatal(err)
	}
	if p := metricPoints(reg)["borg_plan_replans_total"]; p.Value != 1 {
		t.Errorf("no-op replan counted: replans_total = %v, want 1", p.Value)
	}
}

// TestEpochAgeGauge checks the scrape-time age gauge advances between
// publications.
func TestEpochAgeGauge(t *testing.T) {
	j, stream, feats := salesSchema(9, 10, 4, 2)
	reg := obs.NewRegistry()
	srv, err := New(j, "Sales", feats, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	a1 := metricPoints(reg)["borg_serve_epoch_age_seconds"].Value
	time.Sleep(20 * time.Millisecond)
	a2 := metricPoints(reg)["borg_serve_epoch_age_seconds"].Value
	if a2 <= a1 {
		t.Fatalf("epoch age did not advance: %v then %v", a1, a2)
	}
}

// TestWriterPathAllocsWithMetrics extends the publication-alloc pin to
// the instrumented path: metric updates must not add allocations to
// the epoch arena's budget.
func TestWriterPathAllocsWithMetrics(t *testing.T) {
	j, stream, feats := salesSchema(7, 300, 8, 4)
	srv, err := New(j, "Sales", feats, Config{Obs: obs.NewRegistry(), Payload: ivm.PayloadPoly2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The writer is stopped; drive the publication path directly, with
	// the metric observations a live publication performs.
	m := srv.metrics
	if a := testing.AllocsPerRun(100, func() {
		start := time.Now()
		readSink += srv.buildSnapshot(1, 2, 3).Count()
		m.publishNs.Observe(int64(time.Since(start)))
		m.epoch.Set(1)
		m.drift.Set(1)
		m.markPublish()
	}); a > 2 {
		t.Fatalf("instrumented publication allocates %.1f/op, want at most 2", a)
	}
}
