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

// ShardedServer is the horizontally scaled Server: tuples are hash-
// partitioned on a shared attribute across independent serving shards,
// and every read folds the per-shard snapshots with ring addition into
// one exact global view. The read API (Count, Mean, SecondMoment, the
// model zoo, CovarSnapshot) is unchanged from Server's, and the write
// API is the same Ingestor surface.
type ShardedServer struct {
	ingestAPI
	inner       *shard.Server
	features    []string
	catFeatures []string
	dicts       map[string]*relation.Dict
	mobs        *modelObs
}

// ServeSharded starts a sharded server maintaining the selected
// payload's statistics of the given features over initially empty
// copies of the query's relations, hash-partitioned per ShardOptions.
// Close it when done.
func (q *Query) ServeSharded(features []string, opt ShardOptions) (*ShardedServer, error) {
	strategy, err := serve.ParseStrategy(opt.Strategy)
	if err != nil {
		return nil, err
	}
	if opt.Workers == 0 {
		opt.Workers = q.Workers
	}
	// As in Serve: a pinned Query.Root passes through and disables
	// greedy planning; an empty root lets each shard's planner choose
	// (they agree — all plan from the same source cardinalities).
	if q.Root != "" {
		if _, err := q.rootOrLargest(); err != nil {
			return nil, err
		}
	}
	inner, err := shard.New(q.join, q.Root, features, shard.Config{
		Config: serve.Config{
			Strategy:           strategy,
			BatchSize:          opt.BatchSize,
			QueueDepth:         opt.QueueDepth,
			Workers:            opt.Workers,
			MorselSize:         q.MorselSize,
			Payload:            opt.Payload,
			Lifted:             opt.Lifted,
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

// Metrics returns the tier's shared metric registry: tier-level merge
// and skew series plus every shard's serve/plan series under shard="i"
// labels, and the zoo's model-training telemetry.
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
	workers := s.inner.Workers()
	out := ShardedServerStats{Shards: make([]ServerStats, len(rows))}
	out.Workers = workers
	for i, r := range rows {
		out.Shards[i] = ServerStats{
			Epoch:     r.Epoch,
			Inserts:   r.Inserts,
			Deletes:   r.Deletes,
			Queued:    r.Queued,
			Count:     r.Count,
			Workers:   workers,
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

// Replan re-plans the tier globally: the per-shard live cardinalities
// are summed, one greedy root is chosen from the totals, and every
// shard rebuilds to it concurrently — each behind its own writer, so
// ingest and merged reads continue throughout and no reader observes a
// mixed state (see Server.Replan for the single-server semantics).
func (s *ShardedServer) Replan() error { return s.inner.Replan() }

// QueueLen totals the per-shard queue depths. QueueLen()==0 with
// quiescent producers means the merged snapshot is current — the same
// invariant Server.Stats documents, preserved across the merge.
func (s *ShardedServer) QueueLen() int { return s.inner.QueueLen() }

// Count returns SUM(1) over the join at the current merged view.
func (s *ShardedServer) Count() float64 { return s.inner.Snapshot().Count() }

// Mean returns the mean of a maintained feature at the current merged
// view (ErrEmptySnapshot while the join is empty — never NaN).
func (s *ShardedServer) Mean(attr string) (float64, error) {
	return s.CovarSnapshot().Mean(attr)
}

// SecondMoment returns SUM(a·b) at the current merged view.
func (s *ShardedServer) SecondMoment(a, b string) (float64, error) {
	return s.CovarSnapshot().SecondMoment(a, b)
}

// TrainLinReg trains a ridge linear regression of the response on the
// remaining maintained features from the current merged statistics —
// the per-shard elements fold with ring addition before training, so
// the model is exactly the one a single unsharded server would produce.
func (s *ShardedServer) TrainLinReg(response string, lambda float64) (*LinearRegression, error) {
	return s.CovarSnapshot().TrainLinReg(response, lambda)
}

// CovarSnapshot freezes the current merged view: an immutable fold of
// the per-shard epoch snapshots on which any number of reads and
// trainings can run while ingest continues on every shard. It satisfies
// the same ServerSnapshot API as an unsharded server's snapshots; its
// Epoch is the sum of the shard epochs.
func (s *ShardedServer) CovarSnapshot() *ServerSnapshot {
	m := s.inner.Snapshot()
	return &ServerSnapshot{
		snap: &serve.Snapshot{
			Epoch:    m.Epoch,
			Inserts:  m.Inserts,
			Deletes:  m.Deletes,
			Stats:    m.Stats,
			Lifted:   m.Lifted,
			Cofactor: m.Cofactor,
		},
		features:    s.features,
		catFeatures: s.catFeatures,
		dicts:       s.dicts,
		obs:         s.mobs,
	}
}
