package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"borg"
)

// queueDepth is the serving default; the traced run compares QueueLen()
// with it to tell an enqueue that found the queue full.
const queueDepth = 1024

// retailerMix is the churn of both Retailer workloads: inserts, deletes
// and updates of Inventory rows plus 2% updates of dimension rows.
// Inserts equal deletes, so the live set keeps its size.
var retailerMix = mix{insert: 0.42, delete: 0.42, update: 0.14, dim: 0.02}

// inproc is an in-process system under test: the dataset, a sharded
// facade server over it with the dataset preloaded, and the unit count
// of the preload.
type inproc struct {
	ds       *dataset
	srv      *borg.ShardedServer
	preUnits uint64
	cont     []string // the maintained continuous features
}

// startInproc is one set-up: generate the dataset, start the server,
// preload, and wait until the preload is visible.
func startInproc(rc *runCtx, parent int, gen func() *dataset, shards int, payload borg.Payload) (*inproc, error) {
	sp := rc.tr.begin(parent, "setup.generate")
	ds := gen()
	rc.tr.end(sp)
	sp = rc.tr.begin(parent, "setup.start")
	q, err := ds.facadeQuery(nil)
	if err != nil {
		return nil, err
	}
	opt := borg.ShardOptions{Shards: shards}
	opt.Payload = payload
	opt.Workers = rc.workers
	opt.PartitionBy = ds.partition
	srv, err := q.ServeSharded(ds.features, opt)
	rc.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rc.tr.begin(parent, "setup.preload")
	err = ds.preload(func(o op) error { return send(srv, ds, o) })
	rc.tr.end(sp, "rows", int64(ds.preloadRows()))
	if err == nil {
		sp = rc.tr.begin(parent, "setup.barrier")
		err = srv.Flush()
		rc.tr.end(sp)
	}
	if err != nil {
		_ = srv.Close() // the preload error is the one to report
		return nil, err
	}
	return &inproc{ds: ds, srv: srv, preUnits: uint64(ds.preloadRows()), cont: srv.Features()}, nil
}

// visibleUnits is the tuple halves beyond the preload that the current
// snapshot covers.
func (sv *inproc) visibleUnits() uint64 {
	s := sv.srv.CovarSnapshot()
	return s.Inserts() + s.Deletes() - sv.preUnits
}

// served reads the final state back for the oracle.
func (sv *inproc) served() served {
	s := sv.srv.CovarSnapshot()
	return served{inserts: s.Inserts(), deletes: s.Deletes(), count: s.Count(), mean: s.Mean, moment: s.SecondMoment}
}

// timedSetups reports setup_s. first is the set-up the measured run
// used; the others are made and torn down after the run, so that their
// garbage does not count towards the run's peak RSS.
func timedSetups(rc *runCtx, first time.Duration, again func() error) error {
	parts := []float64{first.Seconds()}
	for i := 1; i < rc.sz.setups && !rc.trace; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := again(); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		parts = append(parts, time.Since(t0).Seconds())
	}
	rc.res.e2e("setup_s", ofParts(parts, len(parts)))
	return nil
}

// liveRun drives the two Retailer workloads: one producer, closed loop
// or paced, a reader training models off the live snapshot, and the
// freshness probe. The main goroutine only sleeps to the window
// boundaries and takes the boundary readings.
type liveRun struct {
	rc    *runCtx
	sv    *inproc
	gen   *churnGen
	clk   wallClock
	win   windows
	span  int // the measure span
	probe *freshProbe
	tr    *trainer

	fresh, train, late *samples
	sent               atomic.Int64 // ops sent so far
	failed             atomic.Int64
	stop               atomic.Bool

	// traced runs time every facade call
	enqNs, enqOps, fullOps int64
}

func (lr *liveRun) winAt(d time.Duration) int { return lr.win.index(lr.clk.t0.Add(d)) }

// sendOne sends one op; the traced run times the call and sets apart
// the calls that found the ingest queue full, which wait for the writer.
func (lr *liveRun) sendOne(o op) {
	var err error
	if lr.rc.trace {
		full := lr.sv.srv.QueueLen() >= queueDepth
		t0 := time.Now()
		err = send(lr.sv.srv, lr.sv.ds, o)
		if full {
			lr.fullOps++
		} else {
			lr.enqNs += int64(time.Since(t0))
			lr.enqOps++
		}
	} else {
		err = send(lr.sv.srv, lr.sv.ds, o)
	}
	if err != nil {
		lr.failed.Add(1)
	}
}

func (lr *liveRun) emitFresh(due, latency time.Duration) {
	lr.fresh.add(lr.winAt(due), ms(latency))
}

// closedLoop is the saturating producer: the next op is sent as soon as
// the previous one is enqueued, so the full queue's backpressure sets
// the rate. It stamps and polls the freshness probe itself every chunk:
// with the queue full it is woken about once per applied batch, which
// is the probe's resolution here.
func (lr *liveRun) closedLoop() {
	const chunk = 64
	var units uint64
	for !lr.stop.Load() {
		sp := lr.rc.tr.begin(lr.span, "facade.enqueue")
		for i := 0; i < chunk; i++ {
			o := lr.gen.next()
			lr.sendOne(o)
			units += uint64(o.units())
		}
		lr.rc.tr.end(sp, "ops", int64(chunk))
		lr.sent.Add(chunk)
		now := lr.clk.Now()
		lr.probe.mark(units, now)
		lr.probe.poll(lr.sv.visibleUnits(), now, lr.emitFresh)
	}
}

// openLoop is the paced producer: a burst every millisecond on a fixed
// schedule, each op timed from when its burst was due.
func (lr *liveRun) openLoop(rate int) {
	pc := pacer{interval: time.Millisecond, next: lr.clk.Now() + time.Millisecond}
	burst := rate / 1000
	var units uint64
	for !lr.stop.Load() {
		due, late := pc.wait(lr.clk)
		lr.late.add(lr.winAt(due), float64(late)/float64(time.Microsecond))
		sp := lr.rc.tr.begin(lr.span, "facade.enqueue")
		for i := 0; i < burst; i++ {
			o := lr.gen.next()
			lr.sendOne(o)
			units += uint64(o.units())
		}
		lr.rc.tr.end(sp, "ops", int64(burst))
		lr.sent.Add(int64(burst))
		if !lr.probe.mark(units, due) {
			lr.failed.Add(int64(burst)) // the watcher lost track: no latency for these
		}
	}
}

// watch polls the snapshot for the paced producer's stamps until the
// producer has stopped and every stamp is covered.
func (lr *liveRun) watch(producerDone <-chan struct{}) {
	deadline := time.Time{}
	for {
		lr.probe.poll(lr.sv.visibleUnits(), lr.clk.Now(), lr.emitFresh)
		select {
		case <-producerDone:
			if deadline.IsZero() {
				deadline = time.Now().Add(5 * time.Second)
			}
			if lr.probe.pending() == 0 || time.Now().After(deadline) {
				return
			}
		default:
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// read trains a linear regression and a PCA off the live snapshot every
// period, timing the pair.
func (lr *liveRun) read(period time.Duration) {
	for next := lr.clk.Now() + period; !lr.stop.Load(); next += period {
		if d := next - lr.clk.Now(); d > 0 {
			time.Sleep(d)
		}
		snap := lr.sv.srv.CovarSnapshot()
		t0 := time.Now()
		err := lr.tr.train(lr.span, snap, "linreg", lr.sv.ds.response)
		if err == nil {
			err = lr.tr.train(lr.span, snap, "pca", "")
		}
		if err != nil {
			lr.failed.Add(1)
			continue
		}
		lr.train.add(lr.winAt(lr.clk.Now()), ms(time.Since(t0)))
	}
}

// runLive is the body of retailer_churn (rate 0: closed loop) and
// retailer_paced (rate > 0: open loop at rate ops/s).
func runLive(rc *runCtx, rate int, trainEvery time.Duration) error {
	gen := func() *dataset { return retailerDataset(rc.seed, rc.sz.retailerSF) }
	setupSpan := rc.tr.begin(rc.root, "setup")
	t0 := time.Now()
	sv, err := startInproc(rc, setupSpan, gen, 1, borg.PayloadCovar)
	setup := time.Since(t0)
	rc.tr.end(setupSpan)
	if err != nil {
		return err
	}
	defer sv.srv.Close()

	const nWin = 5
	lr := &liveRun{rc: rc, sv: sv, tr: newTrainer(rc),
		gen:   newChurnGen(sv.ds, rc.seed, retailerMix, 0, 1),
		probe: newFreshProbe(1 << 16),
		fresh: newSamples(nWin), train: newSamples(nWin), late: newSamples(nWin)}
	lr.span = rc.tr.begin(rc.root, "measure")
	start := time.Now()
	lr.clk = wallClock{t0: start}
	lr.win = newWindows(start, rc.sz.warm, rc.measured(), nWin)

	var wg sync.WaitGroup
	producerDone := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(producerDone)
		if rate > 0 {
			lr.openLoop(rate)
		} else {
			lr.closedLoop()
		}
	}()
	go func() { defer wg.Done(); lr.read(trainEvery) }()
	if rate > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); lr.watch(producerDone) }()
	}

	// Boundary readings: ops visible (sent minus still queued) and the
	// process's malloc count, at the start of each window and at the end.
	visible := make([]int64, nWin+1)
	mem := make([]memStats, nWin+1)
	var before serveReading
	for i := 0; i <= nWin; i++ {
		time.Sleep(time.Until(start.Add(rc.sz.warm + time.Duration(i)*lr.win.each)))
		sent := lr.sent.Load()
		visible[i] = sent - int64(sv.srv.QueueLen())
		mem[i] = readMemStats()
		if i == 0 {
			before = readRegistry(sv.srv.Metrics(), 1)
		}
	}
	after := readRegistry(sv.srv.Metrics(), 1)
	wall := time.Duration(nWin) * lr.win.each
	lr.stop.Store(true)
	wg.Wait()
	flushStart := time.Now()
	flushSpan := rc.tr.begin(lr.span, "serve.flush")
	err = sv.srv.Flush()
	rc.tr.end(flushSpan)
	flush := time.Since(flushStart)
	rc.tr.end(lr.span, "ops", lr.sent.Load())
	if err == nil {
		err = sv.srv.Err()
	}
	if err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}

	res := rc.res
	res.Attempted, res.Failed = lr.sent.Load(), lr.failed.Load()
	ops, allocs := make([]float64, nWin), make([]float64, nWin)
	for i := range ops {
		n := float64(visible[i+1] - visible[i])
		ops[i] = n / lr.win.each.Seconds()
		allocs[i] = float64(mem[i+1].Mallocs-mem[i].Mallocs) / n
	}
	measuredOps := visible[nWin] - visible[0]
	res.e2e("ingest_ops_s", ofParts(ops, int(measuredOps)))
	res.e2e("allocs_per_op", ofParts(allocs, int(measuredOps)))
	p50, _ := lr.fresh.quantile(0.5)
	res.e2e("write_p50_ms", p50)
	t50, _ := lr.train.quantile(0.5)
	res.e2e("model_p50_ms", t50)
	res.e2e("peak_rss_mb", metric{Value: rss, N: 1})
	if rate > 0 {
		achieved := float64(measuredOps) / (float64(rate) * wall.Seconds())
		res.layer("gen.achieved_rate_share", achieved, int(measuredOps))
		if l99, ok := lr.late.quantile(0.99); ok {
			res.layer("gen.lateness_p99_us", l99.Value, l99.N)
		}
		if achieved < 0.99 {
			return fmt.Errorf("open loop achieved %.4f of %d ops/s: the run is void", achieved, rate)
		}
	}

	// The layer table.
	if p99, ok := lr.fresh.quantile(0.99); ok {
		res.layer("serve.freshness_p99_ms", p99.Value, p99.N)
	}
	sort.Float64s(lr.probe.gaps)
	res.layer("serve.freshness_resolution_us", quantile(lr.probe.gaps, 0.5), len(lr.probe.gaps))
	res.layer("trace.ingest_ops_s", medianOf(ops), int(measuredOps))
	if lr.enqOps > 0 {
		res.layer("facade.enqueue_ns_per_op", float64(lr.enqNs)/float64(lr.enqOps), int(lr.enqOps))
		res.layer("facade.queue_full_share", float64(lr.fullOps)/float64(lr.enqOps+lr.fullOps), int(lr.enqOps+lr.fullOps))
	}
	res.layer("serve.flush_ms", ms(flush), 1)
	serveLayer(res, after.minus(before), wall, measuredOps, rate == 0)
	rtLayer(res, mem[0], mem[nWin], measuredOps)
	lr.tr.layer(res)
	if rc.trace {
		if rate == 0 {
			sp := rc.tr.begin(rc.root, "plan.replan")
			t0 := time.Now()
			if err := sv.srv.Replan(); err != nil {
				return fmt.Errorf("replan: %w", err)
			}
			res.layer("plan.replan_ms", ms(time.Since(t0)), 1)
			rc.tr.end(sp)
			if err := sv.srv.Flush(); err != nil {
				return err
			}
		}
		ringLayer(res, sv.srv.CovarSnapshot())
		if err := ivmLayer(rc, sv.ds, borg.PayloadCovar, retailerMix); err != nil {
			return err
		}
	}

	oracleSpan := rc.tr.begin(rc.root, "oracle")
	batch, err := checkOracle(rc, oracleSpan, sv.ds, []*churnGen{lr.gen}, sv.cont, sv.served())
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
		again, err := startInproc(rc, 0, gen, 1, borg.PayloadCovar)
		if err != nil {
			return err
		}
		return again.srv.Close()
	})
}
