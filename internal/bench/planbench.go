package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/plan"
	"borg/internal/serve"
)

// planRow streams the workload through one serving configuration with
// two writer clients and reports applied ops/sec. The modes differ only
// in how the variable order is chosen: "static" pins the root to the
// declared fact and never replans, "greedy" starts at the
// cardinality-aware root and replans at publish boundaries, and
// "replanned" starts static and pauses at 40% of the stream (past the
// skew flip) for one explicit Replan(), timing its blocking cost (plan
// choice plus survivor reingest).
func planRow(d *datagen.Dataset, stream []ivm.Tuple, mode string, o Options) ([]string, error) {
	const writers = 2
	root := d.Root
	cfg := serve.Config{BatchSize: 64, QueueDepth: 256}
	if mode == "greedy" {
		root = ""
		cfg.ReplanThreshold = 4
	}
	srv, err := serve.New(d.Join, root, d.Cont, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	parts := make([][]ivm.Tuple, writers)
	for i, t := range stream {
		parts[i%writers] = append(parts[i%writers], t)
	}
	var stopWrite atomic.Bool
	var writeErr atomic.Value
	drive := func(frac0, frac1 float64) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(ws []ivm.Tuple) {
				defer wg.Done()
				lo, hi := int(frac0*float64(len(ws))), int(frac1*float64(len(ws)))
				for i := lo; i < hi && !stopWrite.Load(); i++ {
					if err := srv.Insert(ws[i]); err != nil {
						writeErr.Store(err)
						return
					}
				}
			}(parts[w])
		}
		wg.Wait()
	}

	timer := time.AfterFunc(o.Budget, func() { stopWrite.Store(true) })
	defer timer.Stop()
	start := time.Now()
	var replanMS float64
	if mode == "replanned" {
		drive(0, 0.4)
		t0 := time.Now()
		if err := srv.Replan(); err != nil {
			return nil, err
		}
		replanMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		drive(0.4, 1)
	} else {
		drive(0, 1)
	}
	if err := srv.Flush(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if e := writeErr.Load(); e != nil {
		return nil, e.(error)
	}
	sn := srv.Snapshot()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	note := "full stream"
	if sn.Inserts < uint64(len(stream)) {
		note = fmt.Sprintf("budget cap after %d of %d ops", sn.Inserts, len(stream))
	}
	replan := "-"
	if replanMS > 0 {
		replan = fmt.Sprintf("%.1f ms", replanMS)
	}
	return []string{mode, sn.Root, fmt.Sprintf("%d", sn.Replans), fmt.Sprintf("%.1f", sn.Drift),
		fmt.Sprintf("%d", sn.Inserts), fmt.Sprintf("%.0f/s", float64(sn.Inserts)/elapsed.Seconds()),
		replan, note}, nil
}

// planning measures the planning layer end to end: the SkewFlip stream
// (declared root outgrown mid-stream by a later relation, so it is not
// shuffled) ingested under each mode of planRow. Its title carries the
// cost of one plan.New over the populated join — the pure decision cost
// of a (re)plan.
func planning(o Options) ([]Table, error) {
	d := datagen.SkewFlip(o.Seed, o.SF)
	stream := insertStream(d, nil)
	start := time.Now()
	if _, err := plan.New(d.Join, plan.Options{}); err != nil {
		return nil, err
	}
	planMicros := float64(time.Since(start).Nanoseconds()) / 1e3
	t := Table{Title: fmt.Sprintf("Planning: %s stream (%d tuples), plan cost %.0f µs", d.Name, len(stream), planMicros),
		Headers: []string{"Mode", "Root", "Replans", "Drift", "Ops", "Ops/sec", "Replan", "Note"}}
	for _, mode := range []string{"static", "greedy", "replanned"} {
		row, err := planRow(d, stream, mode, o)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
