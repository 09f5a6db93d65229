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

// PlanCell is one measured planning mode on the skew-inverted stream:
// the same tuples through the same serving stack, differing only in how
// the variable order is chosen (and whether it may change mid-stream).
type PlanCell struct {
	// Mode is "static" (root pinned to the declared fact, never
	// replanned), "greedy" (cardinality-aware root with auto-replanning
	// at publish boundaries), or "replanned" (static start, one explicit
	// Replan() after the skew flip).
	Mode string
	// Root is the join-tree root at the end of the run.
	Root    string
	Replans uint64
	Drift   float64
	// ReplanMillis is the blocking cost of the explicit Replan() call in
	// the "replanned" cell (plan choice plus survivor reingest); 0
	// elsewhere.
	ReplanMillis float64
	Inserts      uint64
	OpsPerSec    float64
	Note         string
}

// PlanReport is the result of the planning figure: ingest throughput of
// static vs greedy vs mid-stream-replanned plans on the SkewFlip
// workload, where the statically pinned root is outgrown by a relation
// streamed after it.
type PlanReport struct {
	Dataset   string
	StreamLen int
	// PlanMicros is the cost of one plan.New over the fully populated
	// join — the per-(re)plan decision overhead, excluding reingest.
	PlanMicros float64
	Cells      []PlanCell
}

// sequentialStream flattens the dataset in StreamOrder WITHOUT
// shuffling — unlike interleavedStream. The planning benchmark needs
// the skew flip to actually happen mid-stream: the relation that
// outgrows the declared root must arrive after it.
func sequentialStream(d *datagen.Dataset) []ivm.Tuple {
	var out []ivm.Tuple
	for _, name := range d.StreamOrder {
		r := d.DB.Relation(name)
		for i := 0; i < r.NumRows(); i++ {
			out = append(out, ivm.Tuple{Rel: name, Values: r.Row(i)})
		}
	}
	return out
}

// planCell streams the workload through one serving configuration with
// two writer clients and reports applied ops/sec. The "replanned" mode
// pauses at 40% of the stream (past the skew flip) for one explicit
// Replan(), timing the blocking cost.
func planCell(d *datagen.Dataset, stream []ivm.Tuple, mode string, o Options) (PlanCell, error) {
	const writers = 2
	const cfgBatch = 64
	root := d.Root
	cfg := serve.Config{BatchSize: cfgBatch, QueueDepth: 256}
	if mode == "greedy" {
		root = ""
		cfg.ReplanThreshold = 4
	}
	srv, err := serve.New(d.Join, root, d.Cont, cfg)
	if err != nil {
		return PlanCell{}, err
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
			return PlanCell{}, err
		}
		replanMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		drive(0.4, 1)
	} else {
		drive(0, 1)
	}
	if err := srv.Flush(); err != nil {
		return PlanCell{}, err
	}
	elapsed := time.Since(start)
	if e := writeErr.Load(); e != nil {
		return PlanCell{}, e.(error)
	}
	sn := srv.Snapshot()
	if err := srv.Close(); err != nil {
		return PlanCell{}, err
	}
	note := "full stream"
	if sn.Inserts < uint64(len(stream)) {
		note = fmt.Sprintf("budget cap after %d of %d ops", sn.Inserts, len(stream))
	}
	return PlanCell{
		Mode:         mode,
		Root:         sn.Root,
		Replans:      sn.Replans,
		Drift:        sn.Drift,
		ReplanMillis: replanMS,
		Inserts:      sn.Inserts,
		OpsPerSec:    float64(sn.Inserts) / elapsed.Seconds(),
		Note:         note,
	}, nil
}

// PlanBench measures the planning layer end to end: the SkewFlip stream
// (declared root outgrown mid-stream by a later relation) ingested
// under a static plan, a greedy auto-replanning plan, and a static
// start with one explicit mid-stream Replan(). It also times one
// plan.New over the populated join — the pure decision cost of a
// (re)plan.
func PlanBench(o Options) (*PlanReport, error) {
	o.defaults()
	d := datagen.SkewFlip(o.Seed, o.SF)
	stream := sequentialStream(d)

	t0 := time.Now()
	if _, err := plan.New(d.Join, plan.Options{}); err != nil {
		return nil, err
	}
	planMicros := float64(time.Since(t0).Nanoseconds()) / 1e3

	rep := &PlanReport{Dataset: d.Name, StreamLen: len(stream), PlanMicros: planMicros}
	for _, mode := range []string{"static", "greedy", "replanned"} {
		cell, err := planCell(d, stream, mode, o)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// PlanBenchTable runs the planning benchmark and renders it as a table.
func PlanBenchTable(o Options) error {
	o.defaults()
	rep, err := PlanBench(o)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, c := range rep.Cells {
		replan := "-"
		if c.ReplanMillis > 0 {
			replan = fmt.Sprintf("%.1f ms", c.ReplanMillis)
		}
		rows = append(rows, []string{
			c.Mode, c.Root, fmt.Sprintf("%d", c.Replans),
			fmt.Sprintf("%.1f", c.Drift),
			fmt.Sprintf("%d", c.Inserts),
			fmt.Sprintf("%.0f/s", c.OpsPerSec),
			replan,
			c.Note,
		})
	}
	printTable(o.Out, fmt.Sprintf("Planning: %s stream (%d tuples), plan cost %.0f µs",
		rep.Dataset, rep.StreamLen, rep.PlanMicros),
		[]string{"Mode", "Root", "Replans", "Drift", "Ops", "Ops/sec", "Replan", "Note"}, rows)
	return nil
}
