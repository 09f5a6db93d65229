package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"borg"
	"borg/internal/exec"
	"borg/internal/ivm"
	"borg/internal/obs"
	"borg/internal/plan"
	"borg/internal/ring"
)

// stage is one of the writer's stage histograms, as a reading that can
// be subtracted from a later one.
type stage struct {
	hist     obs.HistSnapshot // in process: the buckets, so quantiles subtract too
	count    uint64
	sum      int64
	p50, p99 int64 // over HTTP: the quantiles since the server started
}

func (s stage) minus(b stage) stage {
	out := stage{count: s.count - b.count, sum: s.sum - b.sum, p50: s.p50, p99: s.p99}
	if s.hist.Counts != nil {
		out.hist = obs.HistSnapshot{Counts: make([]uint64, len(s.hist.Counts)), Count: out.count, Sum: out.sum}
		for i := range out.hist.Counts {
			out.hist.Counts[i] = s.hist.Counts[i] - b.hist.Counts[i]
		}
		out.p50, out.p99 = out.hist.Quantile(0.50), out.hist.Quantile(0.99)
	}
	return out
}

// stageNames are the registry series of internal/serve the layer table
// is built from, in serveReading order.
var stageNames = [...]string{
	"borg_serve_queue_wait_ns", "borg_serve_batch_size", "borg_serve_apply_delta_ns",
	"borg_serve_apply_mutate_ns", "borg_serve_publish_ns",
}

// serveReading is the writers' stage histograms summed over the shards.
type serveReading struct {
	stages [len(stageNames)]stage // wait, batch, delta, mutate, publish
	shards int
}

func (r serveReading) minus(b serveReading) serveReading {
	out := serveReading{shards: r.shards}
	for i := range r.stages {
		out.stages[i] = r.stages[i].minus(b.stages[i])
	}
	return out
}

// readRegistry reads the stage histograms of an in-process server
// through the registry's public handles (asking for a registered name
// returns the live handle).
func readRegistry(reg *obs.Registry, shards int) serveReading {
	r := serveReading{shards: shards}
	for i, name := range stageNames {
		var merged obs.HistSnapshot
		for s := 0; s < shards; s++ {
			var labels obs.Labels // a single shard registers its series unlabelled
			if shards > 1 {
				labels = obs.Labels{"shard": strconv.Itoa(s)}
			}
			merged.Merge(reg.Histogram(name, "", labels).Snapshot())
		}
		r.stages[i] = stage{hist: merged, count: merged.Count, sum: merged.Sum}
	}
	return r
}

// readPoints builds the same reading from a registry snapshot as GET
// /stats serves it.
func readPoints(points []obs.MetricPoint, shards int) serveReading {
	r := serveReading{shards: shards}
	for i, name := range stageNames {
		for _, p := range points {
			if p.Name == name {
				st := &r.stages[i]
				st.count += p.Count
				st.sum += p.Sum
				st.p50, st.p99 = max(st.p50, p.P50), max(st.p99, p.P99)
			}
		}
	}
	return r
}

// serveLayer fills the internal/serve rows from the stage histograms
// over wall of measured time during which ops ops were applied.
// saturated says the workload keeps the writer busy throughout, so
// writer time the histograms do not account for is worth a flag.
func serveLayer(res *result, d serveReading, wall time.Duration, ops int64, saturated bool) {
	wait, batch, delta, mutate, publish := d.stages[0], d.stages[1], d.stages[2], d.stages[3], d.stages[4]
	res.layer("serve.queue_wait_p50_ms", float64(wait.p50)/1e6, int(wait.count))
	res.layer("serve.queue_wait_p99_ms", float64(wait.p99)/1e6, int(wait.count))
	if batch.count > 0 {
		res.layer("serve.batch_size_mean", float64(batch.sum)/float64(batch.count), int(batch.count))
	}
	if publish.count > 0 {
		res.layer("serve.publish_us_per_epoch", float64(publish.sum)/float64(publish.count)/1e3, int(publish.count))
	}
	res.layer("serve.epochs", float64(publish.count), 1)
	// Each shard has its own writer: shares are of the writers' time.
	writers := float64(wall) * float64(d.shards)
	share := func(s stage) float64 { return float64(s.sum) / writers }
	busy := share(delta) + share(mutate) + share(publish)
	res.layer("serve.delta_share", share(delta), int(delta.count))
	res.layer("serve.mutate_share", share(mutate), int(mutate.count))
	res.layer("serve.publish_share", share(publish), int(publish.count))
	res.layer("serve.writer_busy_share", busy, 1)
	res.layer("serve.unaccounted_share", 1-busy, 1)
	if saturated && res.Trace && 1-busy > 0.10 {
		res.flag("serve.unaccounted_share %.3f: over a tenth of the saturated writer's time is in no stage histogram", 1-busy)
	}
	if ops > 0 {
		res.layer("ivm.registry_delta_ns_per_op", float64(delta.sum)/float64(ops), int(ops))
		res.layer("ivm.registry_mutate_ns_per_op", float64(mutate.sum)/float64(ops), int(ops))
	}
}

// ringSink keeps the timed ring results alive.
var ringSink any

// timeLoop times f in a loop for about 30 ms and returns ns per call.
func timeLoop(f func()) (nsPerCall float64, calls int) {
	f()
	start := time.Now()
	for time.Since(start) < 30*time.Millisecond || calls < 3 {
		f()
		calls++
	}
	return float64(time.Since(start)) / float64(calls), calls
}

// ringLayer times the payload algebra on elements drawn from the
// workload's final snapshot: the snapshot element itself against the
// lift of one tuple at the feature means.
func ringLayer(res *result, snap *borg.ServerSnapshot) {
	c := snap.Covar()
	if c == nil || c.Count == 0 {
		return
	}
	idx, vals := make([]int, c.N), make([]float64, c.N)
	for i := range idx {
		idx[i], vals[i] = i, c.Sum[i]/c.Count
	}
	cr := ring.CovarRing{N: c.N}
	one := cr.Lift(idx, vals)
	put := func(name string, f func()) {
		ns, n := timeLoop(f)
		res.layer(name, ns, n)
	}
	put("ring.covar.add_ns", func() { ringSink = cr.Add(c, one) })
	put("ring.covar.mul_ns", func() { ringSink = cr.Mul(c, one) })
	put("ring.covar.lift_ns", func() { ringSink = cr.Lift(idx, vals) })
	f := snap.Cofactor()
	if f == nil {
		return
	}
	fr := ring.CofactorRing{N: f.N, K: f.K}
	catIdx, cats := make([]int, f.K), make([]int32, f.K)
	for i := range catIdx {
		catIdx[i] = i
	}
	single := fr.LiftCat(idx, vals, catIdx, cats)
	put("ring.cofactor.add_ns", func() { ringSink = fr.Add(f, single) })
	put("ring.cofactor.mul_ns", func() { ringSink = fr.Mul(f, single) })
	put("ring.cofactor.lift_ns", func() { ringSink = fr.LiftCat(idx, vals, catIdx, cats) })
	res.layer("ring.cofactor.groups", float64(f.NumGroups()), 1)
}

// replayResult is one layer replay: the op stream applied straight to a
// fresh maintainer, below facade and serving layer.
type replayResult struct {
	deltaNs, mutateNs int64
	ops               int
	wall              time.Duration
	snapshotUs        float64
}

// replayIVM preloads a fresh F-IVM maintainer and applies the
// workload's churn stream (same seed, so the same ops) to it in
// serving-size batches, reading the phase split from the public
// BatchResult.
func replayIVM(rc *runCtx, parent int, ds *dataset, payload ivm.Payload, m mix, workers int) (replayResult, error) {
	var out replayResult
	popt := plan.Options{PinnedRoot: ds.root, Static: true}
	if ds.root == "" {
		popt = plan.Options{}
	}
	p, err := plan.New(ds.join, popt)
	if err != nil {
		return out, err
	}
	mopts := []ivm.Option{ivm.WithPayload(payload)}
	if p.Greedy {
		mopts = append(mopts, ivm.WithCardinalities(p.Cardinalities))
	}
	mt, err := ivm.NewFIVM(ds.join, p.Root, ds.features, mopts...)
	if err != nil {
		return out, err
	}
	rt := exec.Runtime{Workers: workers}
	if workers >= 2 {
		rt.Pool = exec.NewPool(workers)
		defer rt.Pool.Close()
	}
	mt.SetRuntime(rt)

	const batchSize = 64 // the serving default
	batch := make([]ivm.Op, 0, batchSize)
	apply := func(timed bool) error {
		if len(batch) == 0 {
			return nil
		}
		sp := 0
		if timed {
			sp = rc.tr.begin(parent, "ivm.apply_batch")
		}
		r := mt.ApplyBatch(batch)
		if timed {
			rc.tr.end(sp, "ops", int64(len(batch)))
			out.deltaNs += r.DeltaNanos
			out.mutateNs += r.MutateNanos
			out.ops += len(batch)
		}
		batch = batch[:0]
		return r.Err
	}
	err = ds.preload(func(o op) error {
		batch = append(batch, ivmOp(ds, o))
		if len(batch) == batchSize {
			return apply(false)
		}
		return nil
	})
	if err == nil {
		err = apply(false)
	}
	if err != nil {
		return out, fmt.Errorf("replay preload: %w", err)
	}
	g := newChurnGen(ds, rc.seed, m, 0, 1)
	start := time.Now()
	for i := 0; i < rc.sz.replayOps; i++ {
		batch = append(batch, ivmOp(ds, g.next()))
		if len(batch) == batchSize {
			if err := apply(true); err != nil {
				return out, fmt.Errorf("replay: %w", err)
			}
		}
	}
	if err := apply(true); err != nil {
		return out, fmt.Errorf("replay: %w", err)
	}
	out.wall = time.Since(start)

	// What one epoch publication copies out of the maintainer.
	us := make([]float64, 0, 21)
	var dst ring.Covar
	for i := 0; i < cap(us); i++ {
		t0 := time.Now()
		if payload == ivm.PayloadCofactor {
			ringSink = mt.SnapshotCofactor()
		} else {
			mt.SnapshotInto(&dst)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(us)
	out.snapshotUs = quantile(us, 0.5)
	return out, nil
}

// ivmLayer fills the internal/ivm and internal/exec rows: one replay
// with a single worker, the single-threaded baseline, and one with a
// worker per CPU.
func ivmLayer(rc *runCtx, ds *dataset, payload ivm.Payload, m mix) error {
	sp := rc.tr.begin(rc.root, "replay")
	defer rc.tr.end(sp)
	one, err := replayIVM(rc, sp, ds, payload, m, 1)
	if err != nil {
		return err
	}
	res := rc.res
	res.layer("ivm.snapshot_into_us", one.snapshotUs, 21)
	if rc.workers < 2 {
		res.layer("ivm.delta_ns_per_op", float64(one.deltaNs)/float64(one.ops), one.ops)
		res.layer("ivm.mutate_ns_per_op", float64(one.mutateNs)/float64(one.ops), one.ops)
		res.flag("exec.speedup_1_to_n not measured: one CPU, so one and n workers would share a core")
		return nil
	}
	all, err := replayIVM(rc, sp, ds, payload, m, rc.workers)
	if err != nil {
		return err
	}
	res.layer("ivm.delta_ns_per_op", float64(all.deltaNs)/float64(all.ops), all.ops)
	res.layer("ivm.mutate_ns_per_op", float64(all.mutateNs)/float64(all.ops), all.ops)
	res.layer("exec.speedup_1_to_n", float64(one.wall)/float64(all.wall), all.ops)
	return nil
}
