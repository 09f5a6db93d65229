package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"borg"
)

// runTenant is tenant_cofactor_2shard: one client alternates a burst of
// churn ops, a Flush() barrier and a zoo round (one merged snapshot,
// every model kind trained once) against two shards maintaining the
// sparse cofactor payload. It is round-based: the first rounds warm up
// and are dropped (the live cofactor groups climb from the preload's
// 4 500 to the 5 000 the catalog allows, and ingest slows as they do),
// every later round is one sample of each metric.
func runTenant(rc *runCtx) error {
	const shards = 2
	m := mix{0.42, 0.42, 0.16, 0}
	gen := func() *dataset { return tenantDataset(rc.seed, rc.sz.tenantStores, rc.sz.tenantBase) }
	setupSpan := rc.tr.begin(rc.root, "setup")
	t0 := time.Now()
	sv, err := startInproc(rc, setupSpan, gen, shards, borg.PayloadCofactor)
	setup := time.Since(t0)
	rc.tr.end(setupSpan)
	if err != nil {
		return err
	}
	defer sv.srv.Close()

	g := newChurnGen(sv.ds, rc.seed, m, 0, 1)
	tr := newTrainer(rc)
	tr.linregIters = rc.sz.linregIters
	measure := rc.tr.begin(rc.root, "measure")
	// Enqueue-to-visible latency, by the tier's own queue accounting: the
	// ops sent up to a stamp are visible once ops sent minus QueueLen()
	// reaches the stamp. Across two shards that is the stream position
	// the tier as a whole has published, not each op's own shard; the
	// per-shard figure needs stamps inside the program.
	probe := newFreshProbe(1 << 12)
	var ingest, writeMs, flushMs, zooMs, allocs, mergeUs []float64
	writeN := 0
	var before, after serveReading
	var memBefore, memAfter memStats
	var ingestWall time.Duration // of the measured rounds' ingest and flush phases
	var nFailed int64
	var start time.Time
	for round := 0; ; round++ {
		if round == rc.sz.tenantWarmRounds {
			// The warm-up rounds are over: measuring starts here.
			start = time.Now()
			before, memBefore = readRegistry(sv.srv.Metrics(), shards), readMemStats()
			ingest, writeMs, flushMs, zooMs, allocs, mergeUs, ingestWall, writeN = nil, nil, nil, nil, nil, nil, 0, 0
		}
		if round > rc.sz.tenantWarmRounds && time.Since(start) >= rc.measured() {
			break
		}
		roundSpan := rc.tr.begin(measure, "round")
		m0 := readMemStats()
		t0 := time.Now()
		sp := rc.tr.begin(roundSpan, "facade.enqueue")
		var lat []float64
		emit := func(_, l time.Duration) { lat = append(lat, ms(l)) }
		for i := 0; i < rc.sz.tenantRoundOps; i++ {
			if err := send(sv.srv, sv.ds, g.next()); err != nil {
				nFailed++
			}
			if i%64 == 63 {
				now := time.Since(t0)
				probe.mark(uint64(g.ops), now)
				probe.poll(uint64(g.ops-int64(sv.srv.QueueLen())), now, emit)
			}
		}
		rc.tr.end(sp, "ops", int64(rc.sz.tenantRoundOps))
		t1 := time.Now()
		sp = rc.tr.begin(roundSpan, "serve.flush")
		err := sv.srv.Flush()
		rc.tr.end(sp)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("writer: %w", err)
		}
		probe.poll(uint64(g.ops), t2.Sub(t0), emit) // after the barrier everything is visible
		sort.Float64s(lat)
		writeMs = append(writeMs, quantile(lat, 0.5))
		writeN += len(lat)
		m1 := readMemStats()
		ingestWall += t2.Sub(t0)
		memAfter = m1
		after = readRegistry(sv.srv.Metrics(), shards)

		// The zoo round: the first read after a barrier folds the shards.
		sp = rc.tr.begin(roundSpan, "zoo_round")
		sm := rc.tr.begin(sp, "shard.merge")
		snap := sv.srv.CovarSnapshot()
		t3 := time.Now()
		rc.tr.end(sm)
		for _, kind := range zooKinds {
			if err := tr.train(sp, snap, kind, sv.ds.response); err != nil {
				return err
			}
		}
		t4 := time.Now()
		rc.tr.end(sp)
		rc.tr.end(roundSpan)

		ingest = append(ingest, float64(rc.sz.tenantRoundOps)/t2.Sub(t0).Seconds())
		flushMs = append(flushMs, ms(t2.Sub(t1)))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(rc.sz.tenantRoundOps))
		mergeUs = append(mergeUs, float64(t3.Sub(t2))/1e3)
		zooMs = append(zooMs, ms(t4.Sub(t2)))
	}
	rc.tr.end(measure, "ops", g.ops)
	if err := sv.srv.Err(); err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}

	res := rc.res
	res.Attempted, res.Failed = g.ops, nFailed
	measuredOps := int64(len(ingest) * rc.sz.tenantRoundOps)
	res.e2e("ingest_ops_s", ofParts(ingest, int(measuredOps)))
	res.e2e("write_p50_ms", ofParts(writeMs, writeN))
	res.e2e("model_p50_ms", ofParts(zooMs, len(zooMs)))
	res.e2e("allocs_per_op", ofParts(allocs, int(measuredOps)))
	res.e2e("peak_rss_mb", metric{Value: rss, N: 1})

	res.layer("trace.ingest_ops_s", medianOf(ingest), int(measuredOps))
	res.layer("serve.flush_ms", medianOf(flushMs), len(flushMs))
	res.layer("shard.merge_us", medianOf(mergeUs), len(mergeUs))
	// The shares are of the ingest and flush phases only: during a zoo
	// round the writers are idle by design.
	serveLayer(res, after.minus(before), ingestWall, measuredOps, true)
	rtLayer(res, memBefore, memAfter, measuredOps)
	tr.layer(res)
	if rc.trace {
		ns, n := timeLoop(func() { ringSink = sv.srv.CovarSnapshot() })
		res.layer("shard.memo_read_ns", ns, n)
		var most, sum float64
		st := sv.srv.Stats()
		for _, row := range st.Shards {
			applied := float64(row.Inserts + row.Deletes)
			most, sum = max(most, applied), sum+applied
		}
		res.layer("shard.skew", most/(sum/float64(len(st.Shards))), len(st.Shards))
		ringLayer(res, sv.srv.CovarSnapshot())
		if err := ivmLayer(rc, sv.ds, borg.PayloadCofactor, m); err != nil {
			return err
		}
	}

	oracleSpan := rc.tr.begin(rc.root, "oracle")
	batch, err := checkOracle(rc, oracleSpan, sv.ds, []*churnGen{g}, sv.cont, sv.served())
	rc.tr.end(oracleSpan)
	if err != nil {
		return err
	}
	res.layer("core.covariance_s", batch.Seconds(), 3)
	rc.registry = sv.srv.Metrics().Snapshot()
	if err := sv.srv.Close(); err != nil {
		return err
	}
	return timedSetups(rc, setup, func() error {
		again, err := startInproc(rc, 0, gen, shards, borg.PayloadCofactor)
		if err != nil {
			return err
		}
		return again.srv.Close()
	})
}
