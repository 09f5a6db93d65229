package borg

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"borg/internal/ivm"
	"borg/internal/obs"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/serve"
)

// internMu guards dictionary interning across all servers: same-named
// categorical attributes share one Dict database-wide (and with the
// source database), so concurrent Insert callers — even on different
// servers over the same database — must not race on it. Steady-state
// conversions (values already interned) take only the read lock, so
// concurrent producers do not serialize on known categories.
var internMu sync.RWMutex

// Payload selects which ring statistics a server maintains — the
// payload of the relational ring its IVM strategy carries.
type Payload = serve.Payload

const (
	// PayloadCovar maintains the continuous covariance triple
	// (COUNT/SUM/second moments) — the default, sufficient for linear
	// regression, PCA and k-means seeding.
	PayloadCovar = serve.PayloadCovar
	// PayloadPoly2 additionally maintains every moment of total degree
	// ≤ 4 — the sufficient statistics of degree-2 polynomial regression.
	PayloadPoly2 = serve.PayloadPoly2
	// PayloadCofactor maintains the categorical cofactor ring: the
	// covariance statistics per group of categorical values, the
	// sufficient statistics of the mixed continuous/categorical zoo
	// (one-hot regression, Chow–Liu, categorical trees, LS-SVM).
	PayloadCofactor = serve.PayloadCofactor
)

// ServerOptions tunes a Server. The zero value selects F-IVM maintenance
// of the covariance payload with the default batching knobs.
type ServerOptions struct {
	// Strategy is the IVM maintenance strategy: "fivm" (default, one
	// ring-valued view hierarchy), "higher-order" (one view hierarchy
	// per aggregate), or "first-order" (no views, full delta joins).
	Strategy string
	// BatchSize is the most ops one ApplyBatch call takes and the most
	// an epoch may trail by under backlog: the writer publishes as soon
	// as it has emptied the queue, else once BatchSize applied ops are
	// unpublished (default 64).
	BatchSize int
	// QueueDepth is the ingest queue capacity; full queues apply
	// backpressure to Insert callers (default 1024).
	QueueDepth int
	// Workers sizes the worker pool behind what scans whole relations:
	// the first-order strategy's delta queries. F-IVM and higher-order
	// ingest never use it; to ingest in parallel, shard. 0 falls back
	// to the query's Workers and, when that is also unset, to
	// runtime.GOMAXPROCS(0); 1 or negative selects the serial kernels
	// explicitly. The resolved value is reported by ServerStats.Workers.
	Workers int
	// Payload selects the maintained ring statistics (PayloadCovar,
	// PayloadPoly2, PayloadCofactor). The zero value is PayloadCovar.
	Payload Payload
	// Lifted is the pre-Payload flag for the lifted degree-2 ring.
	//
	// Deprecated: set Payload: PayloadPoly2 instead. Lifted: true is
	// honored as an alias when Payload is unset.
	Lifted bool
	// ReplanThreshold opts into automatic replanning on greedy-planned
	// servers (Query.Root unset): when the plan drift ratio — the
	// largest live relation cardinality over the current join-tree
	// root's — reaches this value at a flush boundary, the writer
	// replans greedily and rebuilds under the new variable order (see
	// Server.Replan). 0 disables auto-replanning; a pinned Query.Root
	// is never overridden. Values below 1 make no sense (drift is ≥ 1
	// whenever the root is still the largest relation); 2–10 are
	// sensible production thresholds.
	ReplanThreshold float64
	// Logger receives structured operational logs (slog): epoch
	// publications at Debug, replans at Info, rejected ops and slow
	// batches at Warn. Nil disables logging.
	Logger *slog.Logger
	// SlowBatchThreshold, when positive, logs a Warn for any batch
	// whose application exceeds it. 0 disables the warning.
	SlowBatchThreshold time.Duration
}

// Ingestor is the write-side API every serving tier satisfies: Server
// and ShardedServer expose identical ingest surfaces, so replays,
// examples and tests can take either. Values follow the Relation.Append
// conventions (any Go numeric type for continuous attributes, string
// for categorical). All methods are safe for any number of concurrent
// callers; Insert/Delete/Update block only when an ingest queue is
// full.
type Ingestor interface {
	Insert(rel string, values ...any) error
	Delete(rel string, values ...any) error
	Update(rel string, oldValues, newValues []any) error
	IngestJSON(body []byte, forceDelete bool) (IngestResult, error)
	Flush() error
	Err() error
	Close() error
}

var (
	_ Ingestor = (*Server)(nil)
	_ Ingestor = (*ShardedServer)(nil)
)

// ingestSink is the internal surface the serving tiers already share —
// tuple-level ingest on converted rows plus schema lookup. Both
// serve.Server and shard.Server satisfy it.
type ingestSink interface {
	Schema(rel string) *relation.Relation
	Insert(t ivm.Tuple) error
	Delete(t ivm.Tuple) error
	Update(oldT, newT ivm.Tuple) error
	Flush() error
	Err() error
	Close() error
}

// ingestAPI is the shared facade ingest plumbing: one coerce/enqueue
// path embedded by Server and ShardedServer, so the value-conversion
// conventions cannot drift between the tiers.
type ingestAPI struct {
	sink ingestSink
	// rels are the schemas of the join, so that IngestJSON can resolve a
	// relation from the bytes that name it.
	rels []*relation.Relation
}

func newIngestAPI(sink ingestSink, j *query.Join) ingestAPI {
	a := ingestAPI{sink: sink}
	for _, r := range j.Relations {
		a.rels = append(a.rels, sink.Schema(r.Name))
	}
	return a
}

// Insert enqueues one tuple insert into the named relation. Values
// follow the Relation.Append conventions (any Go numeric type for
// continuous, string for categorical). Insert is safe for any number of
// concurrent callers; it blocks only when the ingest queue is full. On
// a sharded server the tuple is routed to its shard by the partition
// hash.
func (a ingestAPI) Insert(rel string, values ...any) error {
	row, err := a.coerce(rel, values)
	if err != nil {
		return err
	}
	return a.sink.Insert(ivm.Tuple{Rel: rel, Values: row})
}

// Delete enqueues the retraction of one previously inserted tuple,
// identified by value (multiset semantics: one equal-valued occurrence
// is removed). Values follow the same conventions as Insert. Like
// Insert it is safe for concurrent callers; a delete whose target is
// not live when applied surfaces as a maintenance error via Flush and
// Close. Callers that need insert-before-delete ordering issue both
// from the same goroutine — the ingest queues preserve per-producer
// order, and on a sharded server equal values hash to the same shard.
func (a ingestAPI) Delete(rel string, values ...any) error {
	row, err := a.coerce(rel, values)
	if err != nil {
		return err
	}
	return a.sink.Delete(ivm.Tuple{Rel: rel, Values: row})
}

// Update enqueues a correction: the tuple equal to oldValues is
// retracted and the newValues tuple inserted, applied back to back by
// one writer so no published snapshot shows the join with neither (or
// both). The update is strict — when no live tuple matches oldValues,
// nothing is inserted and the error surfaces via Flush/Close. Sharded
// servers reject updates that change the partition attribute; issue an
// explicit Delete and Insert to move a tuple across shards.
func (a ingestAPI) Update(rel string, oldValues, newValues []any) error {
	oldRow, err := a.coerce(rel, oldValues)
	if err != nil {
		return err
	}
	newRow, err := a.coerce(rel, newValues)
	if err != nil {
		return err
	}
	return a.sink.Update(ivm.Tuple{Rel: rel, Values: oldRow}, ivm.Tuple{Rel: rel, Values: newRow})
}

// coerce resolves the relation schema and converts one facade value
// row. Shards share dictionaries, so one conversion is valid on every
// shard.
func (a ingestAPI) coerce(rel string, values []any) ([]relation.Value, error) {
	r := a.sink.Schema(rel)
	if r == nil {
		return nil, fmt.Errorf("borg: unknown relation %s", rel)
	}
	return coerceRow(r, values)
}

// Flush is a write barrier: it returns once every op enqueued before
// the call is applied and visible in the current snapshot (on a sharded
// server, in the merged snapshot — all shard barriers run concurrently,
// two-phase).
func (a ingestAPI) Flush() error { return a.sink.Flush() }

// Err reports the first maintenance error the writer has encountered
// (nil while healthy) — the way asynchronous failures like a delete
// whose target was never live become observable without a Flush
// barrier. Flush and Close return the same error.
func (a ingestAPI) Err() error { return a.sink.Err() }

// Close drains already-queued ops, publishes a final snapshot, and
// stops the writer(s). Producers that need every insert applied call
// Flush first. Close is idempotent.
func (a ingestAPI) Close() error { return a.sink.Close() }

// Server is the concurrent streaming-serving layer: a long-lived session
// that owns an initially empty copy of the query's relations plus an IVM
// maintainer, ingests inserts through a batching queue applied by a
// single writer goroutine, and serves snapshot-consistent statistics and
// model reads to any number of concurrent readers. Reads are one atomic
// pointer load — they never block the writer, and the writer never waits
// for readers (epoch/copy-on-write handoff).
type Server struct {
	ingestAPI
	inner       *serve.Server
	features    []string
	catFeatures []string
	dicts       map[string]*relation.Dict
	mobs        *modelObs
}

// Serve starts a server maintaining the selected payload's statistics
// of the given features over an initially empty copy of the query's
// relations. With PayloadCovar or PayloadPoly2 every feature must be
// continuous; with PayloadCofactor categorical features become the
// cofactor group-by slots. Close it when done.
func (q *Query) Serve(features []string, opt ServerOptions) (*Server, error) {
	strategy, err := serve.ParseStrategy(opt.Strategy)
	if err != nil {
		return nil, err
	}
	if opt.Workers == 0 {
		// The query's parallelism config is the facade-wide default;
		// pass ServerOptions{Workers: 1} for explicitly serial kernels.
		opt.Workers = q.Workers
	}
	// A pinned Query.Root passes through and disables greedy planning;
	// an empty root hands the choice to the planning layer (greedy from
	// live cardinalities, replannable). Validate the pin here so the
	// error names the facade, not the planner.
	if q.Root != "" {
		if _, err := q.rootOrLargest(); err != nil {
			return nil, err
		}
	}
	inner, err := serve.New(q.join, q.Root, features, serve.Config{
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
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
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

// dicts resolves the shared dictionaries of the named categorical
// attributes (models trained on cofactor snapshots translate category
// strings through them).
func (q *Query) dicts(attrs []string) map[string]*relation.Dict {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]*relation.Dict, len(attrs))
	for _, a := range attrs {
		out[a] = q.dict(a)
	}
	return out
}

// Features returns the maintained continuous features, in statistics
// order.
func (s *Server) Features() []string { return s.features }

// CatFeatures returns the maintained categorical features (cofactor
// group-by slots), in slot order; empty unless the server runs
// PayloadCofactor.
func (s *Server) CatFeatures() []string { return s.catFeatures }

// Payload reports which ring statistics the server maintains.
func (s *Server) Payload() Payload { return s.inner.Payload() }

// Metrics returns the registry holding the server's metric series —
// ingest, batching, publication, plan, and model-training telemetry
// (see internal/obs). Serve it with Registry.WriteExposition or embed
// Registry.Snapshot in a stats payload.
func (s *Server) Metrics() *obs.Registry { return s.inner.Metrics() }

// ServerStats is a point-in-time health view of a server.
type ServerStats struct {
	// Epoch is the published snapshot sequence number.
	Epoch uint64
	// Inserts counts tuple inserts applied as of the current snapshot
	// (the insert half of an update counts here).
	Inserts uint64
	// Deletes counts tuple deletes applied as of the current snapshot
	// (the retraction half of an update counts here).
	Deletes uint64
	// Queued counts ops enqueued or applied but not yet covered by a
	// published snapshot — including the batch the writer is currently
	// holding, so Queued==0 means the snapshot is current.
	Queued int
	// Count is SUM(1) over the join at the current snapshot.
	Count float64
	// Workers is the resolved worker-pool size (ServerOptions.Workers
	// after defaulting — a zero option on an N-core machine reports N).
	// On a sharded server the aggregate row reports the per-shard value.
	// Ingest parallelism is the shard count, not Workers.
	Workers int
	// Root is the join-tree root the maintainer is currently planned
	// under (on a sharded server: shard 0's root; all shards agree
	// unless per-shard auto-replans diverged them).
	Root string
	// PlanDepth is the longest root-to-leaf chain of the current plan's
	// variable order; PlanWidth its factorization width (1 = acyclic).
	PlanDepth int
	PlanWidth int
	// Drift is the plan-drift ratio at the current snapshot: largest
	// live relation cardinality over the root's. 1.0 means the root is
	// still the largest relation; larger values mean churn has skewed
	// relative sizes away from the plan. On a sharded server the
	// aggregate row reports the maximum across shards.
	Drift float64
	// Replans counts completed plan rebuilds (summed across shards on a
	// sharded server).
	Replans uint64
}

// Stats reports the server's current epoch, applied op counts, queue
// depth, and join cardinality.
func (s *Server) Stats() ServerStats {
	snap := s.inner.Snapshot()
	return ServerStats{
		Epoch:     snap.Epoch,
		Inserts:   snap.Inserts,
		Deletes:   snap.Deletes,
		Queued:    s.inner.QueueLen(),
		Count:     snap.Count(),
		Workers:   s.inner.Workers(),
		Root:      snap.Root,
		PlanDepth: snap.PlanDepth,
		PlanWidth: snap.PlanWidth,
		Drift:     snap.Drift,
		Replans:   snap.Replans,
	}
}

// Replan re-plans the server greedily from live cardinalities and, when
// the greedy root differs from the current one, rebuilds the maintainer
// under the new variable order — behind the writer, so concurrent
// Insert/Delete/Update callers keep enqueueing and readers keep loading
// snapshots throughout; the rebuilt epoch is swapped in atomically
// before Replan returns, so no reader ever observes a mixed state. Any
// valid variable order maintains the same ring statistics, so models
// before and after agree to float tolerance. Cost is one batch
// reingest of the live rows. Replan also re-enables greedy planning on
// a server whose Query.Root was pinned at construction.
func (s *Server) Replan() error { return s.inner.Replan() }

// Count returns SUM(1) over the join at the current snapshot.
func (s *Server) Count() float64 { return s.inner.Snapshot().Count() }

// Mean returns the mean of a maintained feature at the current snapshot
// (ErrEmptySnapshot while the join is empty — never NaN).
func (s *Server) Mean(attr string) (float64, error) {
	return s.CovarSnapshot().Mean(attr)
}

// SecondMoment returns SUM(a·b) at the current snapshot.
func (s *Server) SecondMoment(a, b string) (float64, error) {
	return s.CovarSnapshot().SecondMoment(a, b)
}

// TrainLinReg trains a ridge linear regression of the response on the
// remaining maintained features, entirely from the current snapshot's
// statistics — no data access, no interruption of the write path.
func (s *Server) TrainLinReg(response string, lambda float64) (*LinearRegression, error) {
	return s.CovarSnapshot().TrainLinReg(response, lambda)
}

// CovarSnapshot freezes the current epoch: an immutable view of the
// maintained statistics on which any number of reads and trainings can
// run while inserts continue.
func (s *Server) CovarSnapshot() *ServerSnapshot {
	return &ServerSnapshot{snap: s.inner.Snapshot(), features: s.features, catFeatures: s.catFeatures, dicts: s.dicts, obs: s.mobs}
}

// ServerSnapshot is one published epoch of a Server: every read on it
// observes the same consistent state.
type ServerSnapshot struct {
	snap        *serve.Snapshot
	features    []string
	catFeatures []string
	dicts       map[string]*relation.Dict
	// obs instruments trainings run on this snapshot (nil = off).
	obs *modelObs
}

// Epoch returns the snapshot's publication sequence number.
func (s *ServerSnapshot) Epoch() uint64 { return s.snap.Epoch }

// Inserts returns how many tuple inserts had been applied at this epoch.
func (s *ServerSnapshot) Inserts() uint64 { return s.snap.Inserts }

// Deletes returns how many tuple deletes had been applied at this epoch.
func (s *ServerSnapshot) Deletes() uint64 { return s.snap.Deletes }

// Count returns SUM(1) over the join at this epoch.
func (s *ServerSnapshot) Count() float64 { return s.snap.Count() }

// Features returns the maintained continuous features, in statistics
// order.
func (s *ServerSnapshot) Features() []string { return s.features }

// CatFeatures returns the maintained categorical features, in cofactor
// slot order; empty unless the payload is PayloadCofactor.
func (s *ServerSnapshot) CatFeatures() []string { return s.catFeatures }

// Payload reports which ring statistics this epoch carries.
func (s *ServerSnapshot) Payload() Payload {
	switch {
	case s.snap.Cofactor != nil:
		return PayloadCofactor
	case s.snap.Lifted != nil:
		return PayloadPoly2
	}
	return PayloadCovar
}

// Mean returns the mean of a maintained feature at this epoch. A
// snapshot of an empty join — never populated, or churned to empty by
// deletes — returns ErrEmptySnapshot: dividing by the zero count would
// be NaN, and a silent 0 would be indistinguishable from a real zero
// mean.
func (s *ServerSnapshot) Mean(attr string) (float64, error) {
	i, err := s.featureIndex(attr)
	if err != nil {
		return 0, err
	}
	if err := s.ready(); err != nil {
		return 0, err
	}
	return s.snap.Sum(i) / s.snap.Count(), nil
}

// SecondMoment returns SUM(a·b) at this epoch (ErrEmptySnapshot on an
// empty snapshot, consistently with every other statistics read).
func (s *ServerSnapshot) SecondMoment(a, b string) (float64, error) {
	i, err := s.featureIndex(a)
	if err != nil {
		return 0, err
	}
	j, err := s.featureIndex(b)
	if err != nil {
		return 0, err
	}
	if err := s.ready(); err != nil {
		return 0, err
	}
	return s.snap.Moment(i, j), nil
}

// Covar exposes the epoch's raw covariance triple (read-only).
func (s *ServerSnapshot) Covar() *ring.Covar { return s.snap.Stats }

// Cofactor exposes the epoch's raw categorical cofactor element
// (read-only), nil unless the payload is PayloadCofactor.
func (s *ServerSnapshot) Cofactor() *ring.Cofactor { return s.snap.Cofactor }

// TrainLinReg trains a ridge linear regression of the response on the
// remaining maintained features from this epoch's statistics, with the
// default gradient-descent budget (TrainLinRegGD exposes the knobs). On
// a PayloadCofactor server the design additionally one-hot encodes the
// categorical features. An empty snapshot returns ErrEmptySnapshot.
func (s *ServerSnapshot) TrainLinReg(response string, lambda float64) (*LinearRegression, error) {
	return s.TrainLinRegGD(response, lambda, GDOptions{})
}

func (s *ServerSnapshot) featureIndex(attr string) (int, error) {
	for i, f := range s.features {
		if f == attr {
			return i, nil
		}
	}
	avail := s.features
	if len(s.catFeatures) > 0 {
		avail = append(append([]string(nil), s.features...), s.catFeatures...)
	}
	return 0, fmt.Errorf("borg: %s is not a maintained continuous feature; the maintained features are %s", attr, strings.Join(avail, ", "))
}
