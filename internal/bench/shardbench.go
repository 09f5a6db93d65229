package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"borg/internal/datagen"
	"borg/internal/serve"
	"borg/internal/shard"
)

// ShardCell is one measured sharded-serving configuration: a strategy ×
// shard count × insert/delete mix under a fixed producer/reader load.
type ShardCell struct {
	Strategy string `json:"strategy"`
	// Shards is the shard count of the tier under test.
	Shards int `json:"shards"`
	// Variant is "sharded" (through the shard tier) or "plain" (a bare
	// serve.Server with no shard wrapper — the baseline that proves the
	// Shards=1 fast path adds no merge overhead: compare the two
	// shards=1 rows of the same strategy).
	Variant string `json:"variant"`
	Readers int    `json:"readers"`
	Writers int    `json:"writers"`
	// DeleteFrac is the fraction of applied ops that are retractions
	// (0 = insert-only, 0.1 = the 90/10 churn mix).
	DeleteFrac    float64 `json:"delete_frac,omitempty"`
	Inserts       uint64  `json:"inserts"`
	Deletes       uint64  `json:"deletes,omitempty"`
	Seconds       float64 `json:"seconds"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	// Ops / OpsPerSec count every applied op across all shards: the
	// ingest throughput the perf gate tracks.
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Reads counts merged snapshot reads; the latency percentiles time
	// one merged read (a ring fold over all shards' snapshots).
	Reads        uint64  `json:"reads"`
	ReadP50Nanos float64 `json:"read_p50_ns"`
	ReadP99Nanos float64 `json:"read_p99_ns"`
	// FinalEpoch sums the per-shard publication epochs.
	FinalEpoch uint64 `json:"final_epoch"`
	Note       string `json:"note,omitempty"`
}

// ShardReport is the machine-readable result of the sharded-serving
// benchmark on the multi-tenant Tenant stream: ingest throughput and
// merged-read latency for the three IVM strategies at shard counts 1,
// 2, and 4, insert-only and under the 90/10 churn mix, plus a plain
// (unsharded) server baseline per strategy. Committed runs live under
// benchmarks/.
type ShardReport struct {
	Dataset       string      `json:"dataset"`
	SF            float64     `json:"sf"`
	Seed          uint64      `json:"seed"`
	Features      int         `json:"features"`
	StreamLen     int         `json:"stream_len"`
	CPUs          int         `json:"cpus"`
	PartitionBy   string      `json:"partition_by"`
	BatchSize     int         `json:"batch_size"`
	BudgetSeconds float64     `json:"budget_seconds"`
	Env           Environment `json:"env"`
	Cells         []ShardCell `json:"cells"`
}

// shardedTarget adapts the sharded tier to the streaming harness.
func shardedTarget(srv *shard.Server) streamTarget {
	return streamTarget{
		insert: srv.Insert,
		delete: srv.Delete,
		flush:  srv.Flush,
		close:  srv.Close,
		read: func() float64 {
			m := srv.Snapshot()
			return m.Count() + m.Sum(0) + m.Moment(0, 0)
		},
		final: func() (uint64, uint64, uint64) {
			m := srv.Snapshot()
			return m.Inserts, m.Deletes, m.Epoch
		},
	}
}

// ShardBench measures the sharded serving tier on the multi-tenant
// Tenant stream: four producer clients hash-partition tuples across the
// shards while concurrent readers fold merged snapshots, for every IVM
// strategy at shard counts 1, 2, and 4, insert-only and at the 90/10
// insert/delete churn mix — plus one plain serve.Server baseline per
// strategy that bounds the Shards=1 wrapper overhead.
func ShardBench(o Options) (*ShardReport, error) {
	o.defaults()
	const writers, readers = 4, 2
	const cfgBatch = 64
	d := datagen.Tenant(o.Seed, o.SF)
	stream := interleavedStream(d, o.Seed)
	rep := &ShardReport{
		Dataset:       d.Name,
		SF:            o.SF,
		Seed:          o.Seed,
		Features:      len(d.Cont),
		StreamLen:     len(stream),
		CPUs:          runtime.NumCPU(),
		PartitionBy:   "store",
		BatchSize:     cfgBatch,
		BudgetSeconds: o.Budget.Seconds(),
		Env:           captureEnv(o.Workers, 0),
	}
	cfg := func(strategy serve.Strategy) serve.Config {
		return serve.Config{
			Strategy:   strategy,
			BatchSize:  cfgBatch,
			QueueDepth: 256,
			Workers:    o.Workers,
		}
	}
	cell := func(tgt streamTarget, strategy serve.Strategy, shards int, variant string, deleteFrac float64) (ShardCell, error) {
		m, err := measureStream(tgt, stream, writers, readers, deleteFrac, o)
		if err != nil {
			return ShardCell{}, err
		}
		return ShardCell{
			Strategy:      strategy.String(),
			Shards:        shards,
			Variant:       variant,
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
	for _, strategy := range serve.Strategies() {
		// Plain baseline: a bare serve.Server, no shard wrapper.
		plain, err := serve.New(d.Join, d.Root, d.Cont, cfg(strategy))
		if err != nil {
			return nil, err
		}
		c, err := cell(serveTarget(plain), strategy, 1, "plain", 0)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, c)

		for _, shards := range []int{1, 2, 4} {
			for _, deleteFrac := range []float64{0, 0.1} {
				srv, err := shard.New(d.Join, d.Root, d.Cont, shard.Config{
					Config:      cfg(strategy),
					Shards:      shards,
					PartitionBy: "store",
				})
				if err != nil {
					return nil, err
				}
				c, err := cell(shardedTarget(srv), strategy, shards, "sharded", deleteFrac)
				if err != nil {
					return nil, err
				}
				rep.Cells = append(rep.Cells, c)
			}
		}
	}
	return rep, nil
}

// ShardBenchTable runs the sharded-serving benchmark and renders it as
// a table, or as indented JSON when o.JSON is set (the format committed
// under benchmarks/).
func ShardBenchTable(o Options) error {
	o.defaults()
	rep, err := ShardBench(o)
	if err != nil {
		return err
	}
	if o.JSON {
		enc := json.NewEncoder(o.Out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	renderShardTable(o.Out, rep)
	return nil
}

// renderShardTable renders an already-computed shard report as a table.
func renderShardTable(w io.Writer, rep *ShardReport) {
	var rows [][]string
	for _, c := range rep.Cells {
		mix := "insert-only"
		if c.DeleteFrac > 0 {
			mix = fmt.Sprintf("%.0f/%.0f ins/del", 100*(1-c.DeleteFrac), 100*c.DeleteFrac)
		}
		rows = append(rows, []string{
			c.Strategy, fmt.Sprintf("%d", c.Shards), c.Variant, mix,
			fmt.Sprintf("%d", c.Ops),
			fmt.Sprintf("%.0f/s", c.OpsPerSec),
			fmt.Sprintf("%.0f ns", c.ReadP50Nanos),
			fmt.Sprintf("%.0f ns", c.ReadP99Nanos),
			c.Note,
		})
	}
	nWriters := 0
	if len(rep.Cells) > 0 {
		nWriters = rep.Cells[0].Writers
	}
	printTable(w, fmt.Sprintf("Sharded serving tier: %s stream partitioned by %s, %d producers (%d CPUs)",
		rep.Dataset, rep.PartitionBy, nWriters, rep.CPUs),
		[]string{"Strategy", "Shards", "Variant", "Mix", "Ops", "Ops/sec", "Merged p50", "Merged p99", "Note"}, rows)
}
