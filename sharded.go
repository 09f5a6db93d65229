package borg

import (
	"borg/internal/obs"
	"borg/internal/relation"
	"borg/internal/serve"
	"borg/internal/shard"
)

// ShardOptions tunes a ShardedServer: the per-shard serving knobs plus
// the partitioning scheme. The zero value selects one shard (a plain
// server behind the same API).
type ShardOptions struct {
	ServerOptions
	// Shards is the number of independent serving shards (default 1).
	// Each shard owns its own IVM maintainer and single-writer ingest
	// queue, so ingest parallelism scales with the shard count.
	Shards int
	// PartitionBy names the attribute tuples are hash-partitioned on.
	// It must appear in every relation of the join — that is what keeps
	// equi-join partners on the same shard and makes merged reads exact.
	// Required for two or more shards.
	PartitionBy string
}

// ShardedServer is the concurrent streaming-serving layer: a long-lived
// session that owns initially empty copies of the query's relations
// plus an IVM maintainer per shard, ingests through batching queues
// applied by one writer goroutine per shard, and serves snapshot-
// consistent statistics and model reads to any number of concurrent
// readers. Reads never block a writer, and a writer never waits for
// readers (epoch handoff). With the zero ShardOptions it
// runs one shard and a read is one atomic pointer load. A second shard
// adds ingest parallelism: tuples are hash-partitioned on an attribute
// every relation shares, and a read folds the per-shard snapshots with
// ring addition into one exact global view — the statistics of a
// disjoint union are the ring sum of the parts'.
type ShardedServer struct {
	ingestAPI
	inner       *shard.Server
	features    []string
	catFeatures []string
	dicts       map[string]*relation.Dict
	mobs        *modelObs
}

// ServeSharded starts a server maintaining the selected payload's
// statistics of the given features over initially empty copies of the
// query's relations, hash-partitioned per ShardOptions. With
// PayloadCovar or PayloadPoly2 every feature must be continuous; with
// PayloadCofactor categorical features become the cofactor group-by
// slots. Close it when done.
func (q *Query) ServeSharded(features []string, opt ShardOptions) (*ShardedServer, error) {
	// A pinned Query.Root passes through and disables greedy planning;
	// an empty root lets each shard's planner choose (they agree — all
	// plan from the same source cardinalities) and keeps replanning
	// available. Validate the pin here so the error names the facade,
	// not the planner.
	if q.Root != "" {
		if _, err := q.rootOrLargest(); err != nil {
			return nil, err
		}
	}
	inner, err := shard.New(q.join, q.Root, features, shard.Config{
		Config: serve.Config{
			BatchSize:          opt.BatchSize,
			QueueDepth:         opt.QueueDepth,
			Payload:            opt.Payload,
			ReplanThreshold:    opt.ReplanThreshold,
			Logger:             opt.Logger,
			SlowBatchThreshold: opt.SlowBatchThreshold,
		},
		Shards:      opt.Shards,
		PartitionBy: opt.PartitionBy,
	})
	if err != nil {
		return nil, err
	}
	s := &ShardedServer{
		ingestAPI:   newIngestAPI(inner, q.join),
		inner:       inner,
		features:    inner.Features(),
		catFeatures: inner.CatFeatures(),
		dicts:       q.dicts(inner.CatFeatures()),
	}
	if reg := inner.Metrics(); reg != nil {
		s.mobs = newModelObs(reg)
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ShardedServer) NumShards() int { return s.inner.NumShards() }

// Features returns the maintained continuous features, in statistics
// order.
func (s *ShardedServer) Features() []string { return s.features }

// CatFeatures returns the maintained categorical features (cofactor
// group-by slots), in slot order; empty unless the shards run
// PayloadCofactor.
func (s *ShardedServer) CatFeatures() []string { return s.catFeatures }

// Payload reports which ring statistics the shards maintain.
func (s *ShardedServer) Payload() Payload { return s.inner.Payload() }

// Metrics returns the tier's shared metric registry — ingest, batching,
// publication, plan, merge and skew series (per-shard series under
// shard="i" labels once there are several shards) and the zoo's
// model-training telemetry (see internal/obs). Serve it with
// Registry.WriteExposition or embed Registry.Snapshot in a stats
// payload.
func (s *ShardedServer) Metrics() *obs.Registry { return s.inner.Metrics() }

// ShardedServerStats is a point-in-time health view of a sharded
// server: the aggregate totals plus one row per shard.
type ShardedServerStats struct {
	// ServerStats aggregates across shards: Epoch is the sum of shard
	// epochs (a monotone global version), Queued the total queue depth.
	ServerStats
	// Shards holds one stats row per shard, indexed by shard id.
	Shards []ServerStats
}

// Stats reports aggregate and per-shard health: epochs, applied op
// counts, queue depths, and partition cardinalities.
func (s *ShardedServer) Stats() ShardedServerStats {
	rows := s.inner.Stats()
	out := ShardedServerStats{Shards: make([]ServerStats, len(rows))}
	for i, r := range rows {
		out.Shards[i] = ServerStats{
			Epoch:     r.Epoch,
			Inserts:   r.Inserts,
			Deletes:   r.Deletes,
			Queued:    r.Queued,
			Count:     r.Count,
			Root:      r.Root,
			PlanDepth: r.PlanDepth,
			PlanWidth: r.PlanWidth,
			Drift:     r.Drift,
			Replans:   r.Replans,
		}
		out.Epoch += r.Epoch
		out.Inserts += r.Inserts
		out.Deletes += r.Deletes
		out.Queued += r.Queued
		out.Count += r.Count
		// The aggregate plan row: shards plan from the same inputs, so
		// shard 0's root stands for the tier; drift reports the worst
		// shard and replans the tier-wide total.
		if i == 0 {
			out.Root = r.Root
			out.PlanDepth = r.PlanDepth
			out.PlanWidth = r.PlanWidth
		}
		if r.Drift > out.Drift {
			out.Drift = r.Drift
		}
		out.Replans += r.Replans
	}
	return out
}

// Replan re-plans the tier greedily from live cardinalities (summed
// across shards: one root for the whole tier) and, where that root
// differs from the current one, rebuilds each shard's maintainer under
// the new variable order — behind its writer, so concurrent
// Insert/Delete/Update callers keep enqueueing and readers keep loading
// snapshots throughout; the rebuilt epochs are swapped in atomically
// before Replan returns, so no reader ever observes a mixed state. Any
// valid variable order maintains the same ring statistics, so models
// before and after agree to float tolerance. Cost is one batch reingest
// of the live rows. Replan also re-enables greedy planning, and with it
// ReplanThreshold, on a server whose Query.Root was pinned at
// construction.
func (s *ShardedServer) Replan() error { return s.inner.Replan() }

// QueueLen totals the per-shard queue depths: ops enqueued or applied
// but not yet covered by a published snapshot. QueueLen()==0 with
// quiescent producers means the snapshot is current.
func (s *ShardedServer) QueueLen() int { return s.inner.QueueLen() }

// Count returns SUM(1) over the join at the current snapshot.
func (s *ShardedServer) Count() float64 { return s.inner.Snapshot().Count() }

// Mean returns the mean of a maintained feature at the current snapshot
// (ErrEmptySnapshot while the join is empty — never NaN).
func (s *ShardedServer) Mean(attr string) (float64, error) {
	return s.CovarSnapshot().Mean(attr)
}

// SecondMoment returns SUM(a·b) at the current snapshot.
func (s *ShardedServer) SecondMoment(a, b string) (float64, error) {
	return s.CovarSnapshot().SecondMoment(a, b)
}

// TrainLinReg trains a ridge linear regression of the response on the
// remaining maintained features from the current snapshot's statistics
// — no data access, no interruption of the write path. On several
// shards the per-shard elements fold with ring addition before
// training, so the model is exactly the one a single shard would
// produce.
func (s *ShardedServer) TrainLinReg(response string, lambda float64) (*LinearRegression, error) {
	return s.CovarSnapshot().TrainLinReg(response, lambda)
}

// CovarSnapshot freezes the current epoch: an immutable view of the
// maintained statistics on which any number of reads and trainings can
// run while ingest continues on every shard.
func (s *ShardedServer) CovarSnapshot() *ServerSnapshot {
	return &ServerSnapshot{snap: s.inner.Snapshot(), features: s.features, catFeatures: s.catFeatures, dicts: s.dicts, obs: s.mobs}
}
