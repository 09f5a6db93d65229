package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/serve"
	"borg/internal/xrand"
)

// ServeCell is one measured serving configuration: a strategy × reader
// count × insert/delete mix under a fixed writer load.
type ServeCell struct {
	Strategy string `json:"strategy"`
	Readers  int    `json:"readers"`
	Writers  int    `json:"writers"`
	// DeleteFrac is the fraction of applied ops that are retractions
	// (0 = the insert-only workload, 0.1 = the 90/10 churn mix).
	DeleteFrac    float64 `json:"delete_frac,omitempty"`
	Inserts       uint64  `json:"inserts"`
	Deletes       uint64  `json:"deletes,omitempty"`
	Seconds       float64 `json:"seconds"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	// Ops / OpsPerSec count every applied op (inserts + deletes): the
	// throughput the perf gate tracks, identical to inserts/sec for the
	// insert-only cells.
	Ops          uint64  `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	Reads        uint64  `json:"reads"`
	ReadP50Nanos float64 `json:"read_p50_ns"`
	ReadP99Nanos float64 `json:"read_p99_ns"`
	FinalEpoch   uint64  `json:"final_epoch"`
	Note         string  `json:"note,omitempty"`
}

// ServeReport is the machine-readable result of the serving benchmark:
// streaming ingest throughput and concurrent snapshot-read latency for
// the three IVM strategies at several reader counts, on the Retailer
// insert stream. Committed runs of this report live under benchmarks/.
type ServeReport struct {
	Dataset       string      `json:"dataset"`
	SF            float64     `json:"sf"`
	Seed          uint64      `json:"seed"`
	Features      int         `json:"features"`
	StreamLen     int         `json:"stream_len"`
	CPUs          int         `json:"cpus"`
	BatchSize     int         `json:"batch_size"`
	BudgetSeconds float64     `json:"budget_seconds"`
	Env           Environment `json:"env"`
	Cells         []ServeCell `json:"cells"`
}

// serveProbes is how many snapshot reads a reader times as one latency
// sample: single reads are tens of nanoseconds, below timer resolution.
const serveProbes = 256

// serveReadSink receives every reader's accumulated probe values so the
// compiler cannot eliminate the snapshot reads being timed.
var serveReadSink atomic.Uint64

// benchOp is one producer-side operation of the serving benchmark:
// either an insert or the retraction of a tuple the same producer
// inserted earlier (per-producer FIFO makes the delete race-free).
type benchOp struct {
	del bool
	t   ivm.Tuple
}

// churnOps partitions the insert stream round-robin across the writers
// and injects deletes so that deleteFrac of all applied ops are
// retractions — each targeting a uniformly random live tuple of the
// SAME writer's partition, the correction/expiration pattern of an
// update-heavy workload.
func churnOps(stream []ivm.Tuple, writers int, deleteFrac float64, seed uint64) [][]benchOp {
	ops := make([][]benchOp, writers)
	if deleteFrac <= 0 {
		for i, t := range stream {
			w := i % writers
			ops[w] = append(ops[w], benchOp{t: t})
		}
		return ops
	}
	// One delete per insert with probability p keeps the applied-op mix
	// at deleteFrac: p/(1+p) = deleteFrac.
	p := deleteFrac / (1 - deleteFrac)
	src := xrand.New(seed ^ 0x9E3779B97F4A7C15)
	live := make([][]ivm.Tuple, writers)
	for i, t := range stream {
		w := i % writers
		ops[w] = append(ops[w], benchOp{t: t})
		live[w] = append(live[w], t)
		if src.Float64() < p && len(live[w]) > 0 {
			j := src.Intn(len(live[w]))
			ops[w] = append(ops[w], benchOp{del: true, t: live[w][j]})
			live[w][j] = live[w][len(live[w])-1]
			live[w] = live[w][:len(live[w])-1]
		}
	}
	return ops
}

// streamTarget abstracts a system under measurement — a serve.Server or
// the sharded tier — behind the operations the streaming harness drives.
type streamTarget struct {
	insert func(t ivm.Tuple) error
	delete func(t ivm.Tuple) error
	flush  func() error
	close  func() error
	// read performs one global statistics read and returns a value the
	// sink accumulates (so the compiler cannot eliminate it).
	read func() float64
	// final reports (inserts, deletes, epoch) after the flush barrier.
	final func() (uint64, uint64, uint64)
}

// streamMeasurement is the common result core of one measured cell.
type streamMeasurement struct {
	Inserts uint64
	Deletes uint64
	Seconds float64
	Reads   uint64
	P50     float64
	P99     float64
	Epoch   uint64
	Note    string
}

// measureStream is the shared cell harness of the serving and sharded
// benchmarks: `writers` producers stream the (churned) tuple ops while
// `readers` goroutines time global reads in serveProbes-sized batches.
// The clock stops when ingest is done (writers finished and the queue
// flushed), not when the budget expires: a strategy that swallows the
// whole stream early reports its true throughput, and the budget only
// caps strategies too slow to finish (as in the Figure 4 experiment).
// Cleanup is deferred so error paths never leak producer or reader
// goroutines into later cells.
func measureStream(tgt streamTarget, stream []ivm.Tuple, writers, readers int, deleteFrac float64, o Options) (streamMeasurement, error) {
	defer tgt.close()

	ops := churnOps(stream, writers, deleteFrac, o.Seed)
	totalOps := 0
	for _, ws := range ops {
		totalOps += len(ws)
	}

	var stopWrite atomic.Bool
	var writeErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(ws []benchOp) {
			defer wg.Done()
			for i := 0; i < len(ws) && !stopWrite.Load(); i++ {
				var err error
				if ws[i].del {
					err = tgt.delete(ws[i].t)
				} else {
					err = tgt.insert(ws[i].t)
				}
				if err != nil {
					writeErr.Store(err)
					return
				}
			}
		}(ops[w])
	}
	defer func() {
		stopWrite.Store(true)
		wg.Wait()
	}()

	stopRead := make(chan struct{})
	samples := make([][]float64, readers)
	var readWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			var sink float64
			defer func() { serveReadSink.Add(math.Float64bits(sink)) }()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				t0 := time.Now()
				for p := 0; p < serveProbes; p++ {
					sink += tgt.read()
				}
				samples[r] = append(samples[r], float64(time.Since(t0).Nanoseconds())/serveProbes)
			}
		}(r)
	}
	defer func() {
		select {
		case <-stopRead:
		default:
			close(stopRead)
		}
		readWg.Wait()
	}()

	doneWrite := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneWrite)
	}()
	select {
	case <-doneWrite:
	case <-time.After(o.Budget):
		stopWrite.Store(true)
		<-doneWrite
	}
	if err := tgt.flush(); err != nil {
		return streamMeasurement{}, err
	}
	elapsed := time.Since(start)
	close(stopRead)
	readWg.Wait()
	inserts, deletes, epoch := tgt.final()
	if err := tgt.close(); err != nil {
		return streamMeasurement{}, err
	}
	if e := writeErr.Load(); e != nil {
		return streamMeasurement{}, e.(error)
	}

	var all []float64
	var reads uint64
	for _, s := range samples {
		all = append(all, s...)
		reads += uint64(len(s)) * serveProbes
	}
	sort.Float64s(all)
	applied := inserts + deletes
	note := "full stream"
	if applied < uint64(totalOps) {
		note = fmt.Sprintf("budget cap after %d of %d ops", applied, totalOps)
	}
	return streamMeasurement{
		Inserts: inserts,
		Deletes: deletes,
		Seconds: elapsed.Seconds(),
		Reads:   reads,
		P50:     percentile(all, 0.50),
		P99:     percentile(all, 0.99),
		Epoch:   epoch,
		Note:    note,
	}, nil
}

// serveTarget adapts a serve.Server to the streaming harness.
func serveTarget(srv *serve.Server) streamTarget {
	return streamTarget{
		insert: srv.Insert,
		delete: srv.Delete,
		flush:  srv.Flush,
		close:  srv.Close,
		read: func() float64 {
			s := srv.Snapshot()
			return s.Count() + s.Sum(0) + s.Moment(0, 0)
		},
		final: func() (uint64, uint64, uint64) {
			s := srv.Snapshot()
			return s.Inserts, s.Deletes, s.Epoch
		},
	}
}

// ServeBench measures the serving layer on the Retailer stream: two
// writer clients stream tuples through the batching ingest queue while
// N concurrent readers hammer snapshot reads (Count + Sum + Moment),
// for every IVM strategy at reader counts 1 and 4 on the insert-only
// workload plus a 90/10 insert/delete churn mix. Each cell reports
// applied ops/sec and the p50/p99 latency of one snapshot read.
func ServeBench(o Options) (*ServeReport, error) {
	o.defaults()
	const writers = 2
	const cfgBatch = 64
	d := datagen.Retailer(o.Seed, o.SF)
	stream := interleavedStream(d, o.Seed)
	rep := &ServeReport{
		Dataset:       d.Name,
		SF:            o.SF,
		Seed:          o.Seed,
		Features:      len(d.Cont),
		StreamLen:     len(stream),
		CPUs:          runtime.NumCPU(),
		BatchSize:     cfgBatch,
		BudgetSeconds: o.Budget.Seconds(),
		Env:           captureEnv(o.Workers, 0),
	}
	mixes := []struct {
		readers    int
		deleteFrac float64
	}{
		{1, 0}, {4, 0}, {1, 0.1},
	}
	for _, strategy := range serve.Strategies() {
		for _, mix := range mixes {
			cell, err := serveCell(d, stream, strategy, mix.readers, writers, mix.deleteFrac, cfgBatch, o)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// serveCell measures one strategy × reader-count × mix configuration
// through the shared streaming harness.
func serveCell(d *datagen.Dataset, stream []ivm.Tuple, strategy serve.Strategy, readers, writers int, deleteFrac float64, cfgBatch int, o Options) (ServeCell, error) {
	srv, err := serve.New(d.Join, d.Root, d.Cont, serve.Config{
		Strategy:   strategy,
		BatchSize:  cfgBatch,
		QueueDepth: 256,
		Workers:    o.Workers,
	})
	if err != nil {
		return ServeCell{}, err
	}
	m, err := measureStream(serveTarget(srv), stream, writers, readers, deleteFrac, o)
	if err != nil {
		return ServeCell{}, err
	}
	return ServeCell{
		Strategy:      strategy.String(),
		Readers:       readers,
		Writers:       writers,
		DeleteFrac:    deleteFrac,
		Inserts:       m.Inserts,
		Deletes:       m.Deletes,
		Seconds:       m.Seconds,
		InsertsPerSec: float64(m.Inserts) / m.Seconds,
		Ops:           m.Inserts + m.Deletes,
		OpsPerSec:     float64(m.Inserts+m.Deletes) / m.Seconds,
		Reads:         m.Reads,
		ReadP50Nanos:  m.P50,
		ReadP99Nanos:  m.P99,
		FinalEpoch:    m.Epoch,
		Note:          m.Note,
	}, nil
}

// percentile reads the p-quantile from an ascending-sorted sample set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// ServeBenchTable runs the serving benchmark and renders it as a table,
// or as indented JSON when o.JSON is set (the format committed under
// benchmarks/).
func ServeBenchTable(o Options) error {
	o.defaults()
	rep, err := ServeBench(o)
	if err != nil {
		return err
	}
	if o.JSON {
		enc := json.NewEncoder(o.Out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	var rows [][]string
	for _, c := range rep.Cells {
		mix := "insert-only"
		if c.DeleteFrac > 0 {
			mix = fmt.Sprintf("%.0f/%.0f ins/del", 100*(1-c.DeleteFrac), 100*c.DeleteFrac)
		}
		rows = append(rows, []string{
			c.Strategy, fmt.Sprintf("%d", c.Readers), mix,
			fmt.Sprintf("%d", c.Ops),
			fmt.Sprintf("%.0f/s", c.OpsPerSec),
			fmt.Sprintf("%.0f ns", c.ReadP50Nanos),
			fmt.Sprintf("%.0f ns", c.ReadP99Nanos),
			fmt.Sprintf("%d", c.Reads),
			c.Note,
		})
	}
	nWriters := 0
	if len(rep.Cells) > 0 {
		nWriters = rep.Cells[0].Writers
	}
	printTable(o.Out, fmt.Sprintf("Serving layer: %s stream, %d writers, batch %d (%d CPUs)",
		rep.Dataset, nWriters, rep.BatchSize, rep.CPUs),
		[]string{"Strategy", "Readers", "Mix", "Ops", "Ops/sec", "Read p50", "Read p99", "Reads", "Note"}, rows)
	return nil
}
