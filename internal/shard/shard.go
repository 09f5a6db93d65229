// Package shard is the horizontally scaled serving tier: a hash-
// partitioned array of independent serve.Server shards whose per-shard
// statistics merge exactly under covariance-ring addition.
//
// The scale-out argument is the paper's algebra doing systems work.
// Query results and model sufficient statistics live in a commutative
// ring (internal/ring), so the statistics of a join over a disjoint
// union of databases are the ring sum of the statistics over the parts:
//
//	Covar(D₁ ⊎ D₂ ⊎ … ⊎ Dₙ) = Covar(D₁) + Covar(D₂) + … + Covar(Dₙ)
//
// The one condition is that the parts really are disjoint UNDER THE
// JOIN: no join result tuple may combine base tuples from two shards.
// Partitioning every relation by the hash of one shared attribute — a
// partition attribute that appears in every relation of the join —
// guarantees this, because equi-join partners agree on the attribute
// and therefore land on the same shard. Construction validates the
// requirement and routing enforces it, so a merged read is EXACT, not
// an approximation: Count/Mean/SecondMoment/TrainLinReg over the merge
// are identical (up to float addition order) to a single server's.
//
// Each shard is a full PR-2/3 serving stack — its own IVM maintainer,
// single-writer ingest queue, and epoch/COW snapshot — so ingest
// parallelism scales with the shard count while every shard keeps the
// single-writer simplicity that makes the maintainers lock-free. A
// merged read folds the per-shard snapshots (one pinned read each, see
// serve.Server.Snapshot) with ring addition; it never blocks any writer.
package shard

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"borg/internal/ivm"
	"borg/internal/obs"
	"borg/internal/plan"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/serve"
)

// Config tunes a sharded server. The embedded serve.Config applies to
// every shard; the zero value of Shards selects one shard (which
// devolves to a plain server, merge-free).
type Config struct {
	serve.Config
	// Shards is the number of independent serving shards (default 1).
	Shards int
	// PartitionBy names the attribute tuples are hash-partitioned on. It
	// must appear in every relation of the join, so equi-join partners
	// never cross shards — construction fails otherwise. Required for
	// two or more shards; optional (but still validated when set) for
	// one.
	PartitionBy string
}

// Server is a sharded serving tier over one feature-extraction join:
// N independent serve.Server shards behind a hash router, with global
// reads composed by folding per-shard snapshots under ring addition.
// Create with New, feed with Insert/Delete/Update from any number of
// goroutines, read with Snapshot, and Close when done.
type Server struct {
	shards      []*serve.Server
	features    []string
	catFeatures []string
	partBy      string
	// join is the source join, kept so Replan can compute one global
	// plan over the summed per-shard cardinalities.
	join *query.Join
	// partCol[rel] is the column of the partition attribute in rel;
	// partCat[rel] whether that column is categorical there. Empty maps
	// on the single-shard fast path with no PartitionBy.
	partCol map[string]int
	partCat map[string]bool

	closeOnce sync.Once
	closeErr  error

	// merged memoizes the multi-shard fold, keyed by the full vector of
	// per-shard snapshot pointers: between publications every global
	// read serves the cached fold (steady-state reads are allocation-
	// free); any shard publishing invalidates it by pointer inequality.
	merged atomic.Pointer[mergedMemo]

	// metrics holds the tier's pre-resolved handles (nil when
	// Config.MetricsOff); the per-shard serve metrics live in the same
	// shared registry under shard="i" labels.
	metrics *shardMetrics
	obsReg  *obs.Registry
}

// shardMetrics are the tier-level series: routing counters per shard
// (the skew gauge's input), and merged-read accounting that separates
// real ring folds from memo hits — merge latency is observed only when
// a fold actually runs.
type shardMetrics struct {
	routed   []*obs.Counter // ops routed to shard i, resolved per shard
	mergeNs  *obs.Histogram // ring-fold latency of a merged read
	merges   *obs.Counter   // merged reads that folded
	memoHits *obs.Counter   // merged reads served from the epoch memo
}

// newShardMetrics registers the tier series for n shards.
func newShardMetrics(r *obs.Registry, n int) *shardMetrics {
	m := &shardMetrics{
		mergeNs: r.Histogram("borg_shard_merge_ns",
			"Nanoseconds per merged-read ring fold (memo hits excluded).", nil),
		merges: r.Counter("borg_shard_merges_total",
			"Merged reads that ran a ring fold over per-shard snapshots.", nil),
		memoHits: r.Counter("borg_shard_merge_memo_hits_total",
			"Merged reads served from the per-epoch memo without folding.", nil),
	}
	for i := 0; i < n; i++ {
		m.routed = append(m.routed, r.Counter("borg_shard_routed_total",
			"Tuple ops routed to this shard by the partition hash.",
			obs.Labels{"shard": strconv.Itoa(i)}))
	}
	return m
}

// skew reports the routing imbalance: the hottest shard's routed-op
// share relative to a perfectly uniform split (1.0 = balanced, N =
// everything on one of N shards). 1 when nothing has been routed.
func (m *shardMetrics) skew(n int) float64 {
	var total, max uint64
	for _, c := range m.routed {
		v := c.Value()
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(n) / float64(total)
}

// mergedMemo pairs a folded view with the exact per-shard snapshots it
// folded, for pointer-compare invalidation.
type mergedMemo struct {
	inners []*serve.Snapshot
	view   *serve.Snapshot
}

// New starts a sharded server maintaining the covariance statistics of
// the given features over initially empty copies of the join's
// relations, rooted at the named relation. All shards share the source
// database's attribute dictionaries, so categorical codes — and the
// partition hash — agree across shards.
func New(j *query.Join, root string, features []string, cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 1 && cfg.PartitionBy == "" {
		return nil, fmt.Errorf("shard: PartitionBy is required for %d shards (pick an attribute present in every relation of the join)", cfg.Shards)
	}
	s := &Server{
		partBy:  cfg.PartitionBy,
		join:    j,
		partCol: make(map[string]int, len(j.Relations)),
		partCat: make(map[string]bool, len(j.Relations)),
	}
	if cfg.PartitionBy != "" {
		// Validate the partition attribute against EVERY relation before
		// any shard spins up: a miss means equi-join tuples of that
		// relation could not be routed consistently with their partners,
		// silently splitting join results across shards.
		for _, r := range j.Relations {
			col := r.AttrIndex(cfg.PartitionBy)
			if col < 0 {
				return nil, fmt.Errorf("shard: partition attribute %q is missing from relation %s; the partition attribute must appear in every relation of the join", cfg.PartitionBy, r.Name)
			}
			s.partCol[r.Name] = col
			s.partCat[r.Name] = r.Attrs()[col].Type == relation.Category
		}
	}
	if !cfg.MetricsOff {
		// One registry for the whole tier: per-shard serve series land
		// in it labelled shard="i", tier-level series unlabelled.
		if cfg.Obs == nil {
			cfg.Obs = obs.NewRegistry()
		}
		s.obsReg = cfg.Obs
		sm := newShardMetrics(cfg.Obs, cfg.Shards)
		s.metrics = sm
		nShards := cfg.Shards
		// The gauge closure captures the local bundle, not s.metrics: a
		// stored-field read here would outlive this MetricsOff guard and
		// dereference nil under the control arm.
		cfg.Obs.GaugeFunc("borg_shard_skew",
			"Routing imbalance: hottest shard's op share over a uniform split (1 = balanced).", nil,
			func() float64 { return sm.skew(nShards) })
	}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Config
		if !cfg.MetricsOff && cfg.Shards > 1 {
			labels := obs.Labels{"shard": strconv.Itoa(i)}
			for k, v := range cfg.ObsLabels {
				labels[k] = v
			}
			scfg.ObsLabels = labels
			if scfg.Logger != nil {
				scfg.Logger = scfg.Logger.With("shard", i)
			}
		}
		sh, err := serve.New(j, root, features, scfg)
		if err != nil {
			for _, prev := range s.shards {
				prev.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	s.features = s.shards[0].Features()
	s.catFeatures = s.shards[0].CatFeatures()
	return s, nil
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Features returns the maintained continuous feature names, in snapshot
// index order.
func (s *Server) Features() []string { return s.features }

// CatFeatures returns the maintained categorical feature names in
// cofactor group-slot order; empty unless the shards maintain
// PayloadCofactor.
func (s *Server) CatFeatures() []string { return s.catFeatures }

// Payload reports the maintained ring payload, uniform across shards.
func (s *Server) Payload() ivm.Payload { return s.shards[0].Payload() }

// Schema returns a live relation with the given name, or nil. Its
// schema metadata and dictionaries are shared across shards; its rows
// belong to a shard's writer and must not be read.
func (s *Server) Schema(name string) *relation.Relation { return s.shards[0].Schema(name) }

// Metrics returns the tier's shared metric registry — tier-level
// series plus every shard's serve series under shard="i" labels. Nil
// when Config.MetricsOff disabled instrumentation.
func (s *Server) Metrics() *obs.Registry { return s.obsReg }

// partValueBits returns the bit pattern of t's partition-attribute
// value — the identity tuples are routed (and the update rule judged)
// by. Values that compare equal always map to equal bits
// (relation.NormBits, which the row matching of internal/ivm uses too).
func (s *Server) partValueBits(t ivm.Tuple) (uint64, error) {
	col, ok := s.partCol[t.Rel]
	if !ok {
		return 0, fmt.Errorf("shard: unknown relation %s", t.Rel)
	}
	r := s.shards[0].Schema(t.Rel)
	if len(t.Values) != r.NumAttrs() {
		return 0, fmt.Errorf("shard: tuple for %s has %d values, want %d", t.Rel, len(t.Values), r.NumAttrs())
	}
	if s.partCat[t.Rel] {
		return uint64(uint32(t.Values[col].C)), nil
	}
	return relation.NormBits(t.Values[col].F), nil
}

// shardOf routes a tuple: the hash of its partition-attribute value,
// reduced over the shard count. Equal-valued tuples — and all their
// equi-join partners — always land on the same shard.
func (s *Server) shardOf(t ivm.Tuple) (int, error) {
	if len(s.shards) == 1 {
		return 0, nil
	}
	bits, err := s.partValueBits(t)
	if err != nil {
		return 0, err
	}
	return int(splitmix64(bits) % uint64(len(s.shards))), nil
}

// Insert routes one tuple insert to its shard. Safe for any number of
// concurrent callers; it blocks only when that shard's ingest queue is
// full (backpressure is per shard).
func (s *Server) Insert(t ivm.Tuple) error {
	i, err := s.shardOf(t)
	if err != nil {
		return err
	}
	if m := s.metrics; m != nil {
		m.routed[i].Inc()
	}
	return s.shards[i].Insert(t)
}

// Delete routes the retraction of one previously inserted tuple. A
// delete hashes to the same shard as the equal-valued insert, so
// per-producer insert-before-delete ordering survives sharding.
func (s *Server) Delete(t ivm.Tuple) error {
	i, err := s.shardOf(t)
	if err != nil {
		return err
	}
	if m := s.metrics; m != nil {
		m.routed[i].Inc()
	}
	return s.shards[i].Delete(t)
}

// Update routes a correction: old is retracted and new inserted back to
// back by ONE shard's writer, so no published snapshot shows the join
// with neither or both. An update that changes the partition-attribute
// VALUE is rejected on any partitioned server, whatever the shard
// count or hash layout: across shards it would split over two writers
// and lose both the atomicity and the strict no-upsert guarantee, and
// accepting it only when the two values happen to hash to one shard
// would make client code shard-count-dependent. Callers that really
// mean to move a tuple between partitions issue Delete and Insert
// explicitly, accepting the relaxed semantics.
func (s *Server) Update(old, new ivm.Tuple) error {
	if s.partBy != "" {
		ob, err := s.partValueBits(old)
		if err != nil {
			return err
		}
		nb, err := s.partValueBits(new)
		if err != nil {
			return err
		}
		if ob != nb {
			return fmt.Errorf("shard: update of %s changes the partition attribute %q; issue an explicit Delete and Insert to move a tuple across partitions", old.Rel, s.partBy)
		}
	}
	i, err := s.shardOf(old)
	if err != nil {
		return err
	}
	if m := s.metrics; m != nil {
		m.routed[i].Inc()
	}
	return s.shards[i].Update(old, new)
}

// Snapshot composes the current global view. On a single shard it is
// that shard's own published snapshot — one pinned read, no fold, no
// copy — which is what makes Shards=1 a plain server. On several it is
// the per-shard snapshots folded under ring addition into one immutable
// serve.Snapshot: one pinned read per shard, then the fold — memoized
// per epoch vector, so between publications repeated reads serve the
// same view without folding or allocating. Each shard's contribution is
// individually snapshot-consistent; the fold is a product of per-shard
// epochs, not a globally serialized cut. Its Epoch is the sum of the
// shard epochs (a monotone global version), Inserts and Deletes the
// totals; the plan fields describe one shard each and stay zero on a
// fold (Stats reports them per shard).
func (s *Server) Snapshot() *serve.Snapshot {
	if len(s.shards) == 1 {
		return s.shards[0].Snapshot()
	}
	// Serve the memoized fold while no shard has republished: the memo
	// is valid exactly when every shard still publishes the snapshot it
	// was folded from. Pointer identity is enough, because the memo's
	// snapshots are pinned and so never reused for another epoch. Each
	// shard is read once: from the first one that moved on, the pinned
	// reads become the fold's parts.
	memo := s.merged.Load()
	var inners []*serve.Snapshot
	for i, sh := range s.shards {
		sn := sh.Snapshot()
		if inners == nil {
			if memo != nil && sn == memo.inners[i] {
				continue
			}
			inners = make([]*serve.Snapshot, len(s.shards))
			if memo != nil {
				copy(inners, memo.inners[:i])
			}
		}
		inners[i] = sn
	}
	if inners == nil {
		if sm := s.metrics; sm != nil {
			sm.memoHits.Inc()
		}
		return memo.view
	}
	var foldStart time.Time
	if s.metrics != nil {
		foldStart = time.Now()
	}
	m := serve.Merged(inners)
	for _, sn := range inners {
		m.Epoch += sn.Epoch
		m.Inserts += sn.Inserts
		m.Deletes += sn.Deletes
	}
	// A racing publication can make the memo stale the instant it is
	// stored; the view still folds exactly the snapshots in inners, and
	// the next read rebuilds.
	s.merged.Store(&mergedMemo{inners: inners, view: m})
	if sm := s.metrics; sm != nil {
		sm.merges.Inc()
		sm.mergeNs.Observe(int64(time.Since(foldStart)))
	}
	return m
}

// QueueLen totals the per-shard queue depths (ops enqueued or applied
// but not yet covered by a published snapshot). Each shard's counter
// includes the batch its writer is holding, so QueueLen()==0 with
// quiescent producers means the next Snapshot reflects every accepted
// op — the PR-3 invariant, preserved across the merge.
func (s *Server) QueueLen() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.QueueLen()
	}
	return total
}

// Err reports the first maintenance error any shard's writer has
// encountered (nil while healthy).
func (s *Server) Err() error {
	for _, sh := range s.shards {
		if err := sh.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Flush is a global write barrier, run in two phases: every shard's
// flush op is enqueued concurrently (phase one — the barriers enter all
// queues without waiting on each other), then all acknowledgments are
// collected (phase two). When it returns, every op enqueued on any
// shard before the call is applied and visible in the merged snapshot.
// Enqueueing serially instead would stall shard k's barrier behind the
// full drain of shards 0..k-1, turning the barrier latency into a sum
// over shards rather than a max.
func (s *Server) Flush() error {
	return s.fanOut((*serve.Server).Flush)
}

// Close drains already-queued ops on every shard, publishes final
// snapshots, and stops the writers — concurrently, like Flush, so
// shutdown latency is the slowest drain, not the sum. It returns the
// first maintenance error, if any. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.fanOut((*serve.Server).Close)
	})
	return s.closeErr
}

// Replan re-plans the tier globally: every shard reports its live
// cardinalities (concurrently, each behind its own writer), the sums
// are planned once — one greedy root for the whole tier, so merged
// reads keep folding identically-shaped statistics — and every shard
// rebuilds to the chosen root concurrently (see serve.Server.ReplanTo).
// Per-shard skew cannot diverge the plans: the root choice is made
// from the global counts, not each shard's local view. Afterwards every
// shard is greedy-planned, so ReplanThreshold keeps firing — also on a
// tier whose root was pinned at construction.
func (s *Server) Replan() error {
	totals := make(map[string]int, len(s.join.Relations))
	var mu sync.Mutex
	if err := s.fanOut(func(sh *serve.Server) error {
		cards, err := sh.Cardinalities()
		if err != nil {
			return err
		}
		mu.Lock()
		for name, n := range cards {
			totals[name] += n
		}
		mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	p, err := plan.New(s.join, plan.Options{Cardinalities: totals})
	if err != nil {
		return err
	}
	return s.fanOut(func(sh *serve.Server) error { return sh.ReplanTo(p.Root) })
}

// fanOut runs one serve.Server operation on every shard concurrently
// and returns the first error in shard order.
func (s *Server) fanOut(op func(*serve.Server) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *serve.Server) {
			defer wg.Done()
			errs[i] = op(sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ShardStats is a point-in-time health view of one shard.
type ShardStats struct {
	// Shard is the shard index (the hash-ring position).
	Shard int
	// Epoch is the shard's published snapshot sequence number.
	Epoch uint64
	// Inserts and Deletes count ops applied as of the shard's snapshot.
	Inserts uint64
	Deletes uint64
	// Queued is the shard's queue depth, including the writer's
	// in-flight batch.
	Queued int
	// Count is SUM(1) over the shard's partition of the join.
	Count float64
	// Root is the join-tree root the shard's maintainer is currently
	// planned under; PlanDepth/PlanWidth the variable-order depth and
	// factorization width of its plan.
	Root      string
	PlanDepth int
	PlanWidth int
	// Drift is the shard's plan-drift ratio at its published epoch.
	Drift float64
	// Replans counts the shard's completed plan rebuilds.
	Replans uint64
}

// Stats reports a per-shard health view: queue depths, epochs, applied
// op counts, and partition cardinalities. The per-shard rows are each
// internally consistent (one snapshot load per shard); summing them
// reproduces the aggregate a Snapshot reports.
func (s *Server) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		sn := sh.Snapshot()
		out[i] = ShardStats{
			Shard:     i,
			Epoch:     sn.Epoch,
			Inserts:   sn.Inserts,
			Deletes:   sn.Deletes,
			Queued:    sh.QueueLen(),
			Count:     sn.Count(),
			Root:      sn.Root,
			PlanDepth: sn.PlanDepth,
			PlanWidth: sn.PlanWidth,
			Drift:     sn.Drift,
			Replans:   sn.Replans,
		}
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection
// that spreads small categorical codes (0, 1, 2, …) uniformly before
// the modulo reduction, so low shard counts still balance.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
