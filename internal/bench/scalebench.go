package bench

import (
	"encoding/json"
	"fmt"
	"runtime"

	"borg/internal/datagen"
	"borg/internal/serve"
	"borg/internal/shard"
)

// ScaleCell is one measured multi-core ingest configuration: a strategy
// × GOMAXPROCS × shard-count × insert/delete mix, reporting applied
// ops/sec through the batching queue and morsel-parallel ApplyBatch.
type ScaleCell struct {
	Strategy string `json:"strategy"`
	// Procs is the GOMAXPROCS the cell ran under; Workers (== Procs) is
	// the per-shard pool size batch application fanned out on.
	Procs   int `json:"procs"`
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// DeleteFrac is the fraction of applied ops that are retractions
	// (0 = insert-only, 0.1 = the 90/10 churn mix).
	DeleteFrac float64 `json:"delete_frac,omitempty"`
	Inserts    uint64  `json:"inserts"`
	Deletes    uint64  `json:"deletes,omitempty"`
	Seconds    float64 `json:"seconds"`
	// Ops / OpsPerSec count every applied op (inserts + deletes): the
	// scaling metric of this report.
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	FinalEpoch uint64  `json:"final_epoch"`
	Note       string  `json:"note,omitempty"`
}

// ScaleReport is the machine-readable result of the multi-core ingest
// benchmark: applied-op throughput for the three IVM strategies across
// GOMAXPROCS {1,2,4,8} × shard counts {1,2,4}, insert-only and at the
// 90/10 churn mix, on the multi-tenant Tenant stream. The committed run
// under benchmarks/scale.json is the repository's ingest-scaling
// trajectory; Env discloses the host that produced it — scaling numbers
// from a 1-CPU container show flat curves by construction, and the perf
// gate only enforces the scaling-efficiency floor on hosts with 4+
// CPUs.
type ScaleReport struct {
	Dataset       string      `json:"dataset"`
	SF            float64     `json:"sf"`
	Seed          uint64      `json:"seed"`
	Features      int         `json:"features"`
	StreamLen     int         `json:"stream_len"`
	PartitionBy   string      `json:"partition_by"`
	BatchSize     int         `json:"batch_size"`
	BudgetSeconds float64     `json:"budget_seconds"`
	Env           Environment `json:"env"`
	Cells         []ScaleCell `json:"cells"`
	// Speedup1to4 maps strategy → insert-only throughput of 4 shards at
	// Procs=4 over 1 shard at Procs=1: the 1→4 scale-out of ingest along
	// its one parallelism axis, the shard count (ApplyBatch itself is
	// serial). Near 1.0 on hosts with fewer than 4 CPUs — check Env.CPUs
	// before reading anything into it.
	Speedup1to4 map[string]float64 `json:"speedup_1_to_4"`
}

// scaleProcs and scaleShards are the swept grid axes.
var (
	scaleProcs  = []int{1, 2, 4, 8}
	scaleShards = []int{1, 2, 4}
)

// ScaleBench measures multi-core ingest scaling on the Tenant stream:
// four producers stream (churned) tuples while GOMAXPROCS and the
// worker pool sweep {1,2,4,8} and the shard count {1,2,4}, for every
// IVM strategy, insert-only and at the 90/10 churn mix. No concurrent
// readers — every core goes to ingest, so the curve isolates the
// sharded write path. GOMAXPROCS is restored on return.
func ScaleBench(o Options) (*ScaleReport, error) {
	o.defaults()
	const writers, readers = 4, 0
	const cfgBatch = 64
	d := datagen.Tenant(o.Seed, o.SF)
	stream := interleavedStream(d, o.Seed)
	rep := &ScaleReport{
		Dataset:       d.Name,
		SF:            o.SF,
		Seed:          o.Seed,
		Features:      len(d.Cont),
		StreamLen:     len(stream),
		PartitionBy:   "store",
		BatchSize:     cfgBatch,
		BudgetSeconds: o.Budget.Seconds(),
		Env:           captureEnv(o.Workers, 0),
		Speedup1to4:   make(map[string]float64),
	}
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, procs := range scaleProcs {
		runtime.GOMAXPROCS(procs)
		for _, strategy := range serve.Strategies() {
			for _, shards := range scaleShards {
				for _, deleteFrac := range []float64{0, 0.1} {
					srv, err := shard.New(d.Join, d.Root, d.Cont, shard.Config{
						Config: serve.Config{
							Strategy:   strategy,
							BatchSize:  cfgBatch,
							QueueDepth: 256,
							Workers:    procs,
						},
						Shards:      shards,
						PartitionBy: "store",
					})
					if err != nil {
						return nil, err
					}
					m, err := measureStream(shardedTarget(srv), stream, writers, readers, deleteFrac, o)
					if err != nil {
						return nil, err
					}
					rep.Cells = append(rep.Cells, ScaleCell{
						Strategy:   strategy.String(),
						Procs:      procs,
						Workers:    procs,
						Shards:     shards,
						DeleteFrac: deleteFrac,
						Inserts:    m.Inserts,
						Deletes:    m.Deletes,
						Seconds:    m.Seconds,
						Ops:        m.Inserts + m.Deletes,
						OpsPerSec:  float64(m.Inserts+m.Deletes) / m.Seconds,
						FinalEpoch: m.Epoch,
						Note:       m.Note,
					})
				}
			}
		}
	}
	runtime.GOMAXPROCS(prevProcs)
	for _, strategy := range serve.Strategies() {
		base, at4 := 0.0, 0.0
		for _, c := range rep.Cells {
			if c.Strategy != strategy.String() || c.Shards != c.Procs || c.DeleteFrac != 0 {
				continue
			}
			switch c.Procs {
			case 1:
				base = c.OpsPerSec
			case 4:
				at4 = c.OpsPerSec
			}
		}
		if base > 0 {
			rep.Speedup1to4[strategy.String()] = at4 / base
		}
	}
	return rep, nil
}

// ScaleBenchTable runs the multi-core ingest benchmark and renders it
// as a table, or as indented JSON when o.JSON is set (the format
// committed under benchmarks/scale.json).
func ScaleBenchTable(o Options) error {
	o.defaults()
	rep, err := ScaleBench(o)
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
			c.Strategy, fmt.Sprintf("%d", c.Procs), fmt.Sprintf("%d", c.Shards), mix,
			fmt.Sprintf("%d", c.Ops),
			fmt.Sprintf("%.0f/s", c.OpsPerSec),
			c.Note,
		})
	}
	printTable(o.Out, fmt.Sprintf("Multi-core ingest scaling: %s stream partitioned by %s (%d CPUs, go %s)",
		rep.Dataset, rep.PartitionBy, rep.Env.CPUs, rep.Env.GoVersion),
		[]string{"Strategy", "Procs", "Shards", "Mix", "Ops", "Ops/sec", "Note"}, rows)
	for _, strategy := range serve.Strategies() {
		if s, ok := rep.Speedup1to4[strategy.String()]; ok {
			fmt.Fprintf(o.Out, "%s 1→4 shard speedup (procs = shards, insert-only): %.2fx\n", strategy, s)
		}
	}
	if rep.Env.CPUs < 4 {
		fmt.Fprintf(o.Out, "host has %d CPUs: scaling beyond that count is flat by construction\n", rep.Env.CPUs)
	}
	return nil
}
