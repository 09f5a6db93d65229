package borg

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"borg/internal/ivm"
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
// payload of the relational ring its F-IVM view hierarchy carries.
type Payload = ivm.Payload

const (
	// PayloadCovar maintains the continuous covariance triple
	// (COUNT/SUM/second moments) — the default, sufficient for linear
	// regression, PCA and k-means seeding.
	PayloadCovar = ivm.PayloadCovar
	// PayloadPoly2 additionally maintains every moment of total degree
	// ≤ 4 — the sufficient statistics of degree-2 polynomial regression.
	PayloadPoly2 = ivm.PayloadPoly2
	// PayloadCofactor maintains the categorical cofactor ring: the
	// covariance statistics per group of categorical values, the
	// sufficient statistics of the mixed continuous/categorical zoo
	// (one-hot regression, Chow–Liu, categorical trees, LS-SVM).
	PayloadCofactor = ivm.PayloadCofactor
)

// ServerOptions tunes every shard of a ShardedServer. Every shard
// maintains its payload with F-IVM; the zero value selects the
// covariance payload with the default batching knobs.
type ServerOptions struct {
	// BatchSize is the most ops one ApplyBatch call takes and the most
	// an epoch may trail by under backlog: the writer publishes as soon
	// as it has emptied the queue, else once BatchSize applied ops are
	// unpublished (default 64).
	BatchSize int
	// QueueDepth is the most ops a shard holds accepted and not yet
	// applied; beyond it Insert callers wait (default 1024).
	QueueDepth int
	// Workers has no effect on serving: F-IVM ingest is serial per
	// shard, so to ingest in parallel, shard. It is kept only until the
	// benchmark harness stops setting it.
	Workers int
	// Payload selects the maintained ring statistics (PayloadCovar,
	// PayloadPoly2, PayloadCofactor). The zero value is PayloadCovar.
	Payload Payload
	// ReplanThreshold opts into automatic replanning on greedy-planned
	// servers (Query.Root unset): when the plan drift ratio — the
	// largest live relation cardinality over the current join-tree
	// root's — reaches this value at a flush boundary, the writer
	// replans greedily and rebuilds under the new variable order (see
	// ShardedServer.Replan). 0 disables auto-replanning; a pinned
	// Query.Root is overridden only after an explicit Replan. Values
	// below 1 make no sense (drift is ≥ 1 whenever the root is still the
	// largest relation); 2–10 are sensible production thresholds.
	ReplanThreshold float64
	// Logger receives structured operational logs (slog): epoch
	// publications at Debug, replans at Info, rejected ops and slow
	// batches at Warn. Nil disables logging.
	Logger *slog.Logger
	// SlowBatchThreshold, when positive, logs a Warn for any batch
	// whose application exceeds it. 0 disables the warning.
	SlowBatchThreshold time.Duration
}

// Ingestor is the write-side API of the serving tier, so replays,
// examples and tests can take any ingest target. Values follow the
// Relation.Append conventions (any Go numeric type for continuous
// attributes, string for categorical). All methods are safe for any
// number of concurrent callers; Insert/Delete/Update block only when an
// ingest queue is full, and the values are copied (and the caller's
// slices free to reuse) by the time they return.
type Ingestor interface {
	Insert(rel string, values ...any) error
	Delete(rel string, values ...any) error
	Update(rel string, oldValues, newValues []any) error
	IngestJSON(body []byte, forceDelete bool) (IngestResult, error)
	Flush() error
	Err() error
	Close() error
}

var _ Ingestor = (*ShardedServer)(nil)

// ingestSink is the internal surface the facade ingests through —
// tuple-level ingest on converted rows plus schema lookup. Insert,
// Delete and Update copy the values before they return: the facade
// converts into scratch rows it reuses at once. shard.Server satisfies
// it, and tests substitute a counting fake.
type ingestSink interface {
	Schema(rel string) *relation.Relation
	Insert(t ivm.Tuple) error
	Delete(t ivm.Tuple) error
	Update(oldT, newT ivm.Tuple) error
	Flush() error
	Err() error
	Close() error
}

// ingestAPI is the facade ingest plumbing: the coerce/enqueue path
// ShardedServer embeds, over any ingestSink.
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
	return a.send(ivm.OpInsert, rel, values, nil)
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
	return a.send(ivm.OpDelete, rel, values, nil)
}

// Update enqueues a correction: the tuple equal to oldValues is
// retracted and the newValues tuple inserted, applied back to back by
// one writer so no published snapshot shows the join with neither (or
// both). The update is strict — when no live tuple matches oldValues,
// nothing is inserted and the error surfaces via Flush/Close. Sharded
// servers reject updates that change the partition attribute; issue an
// explicit Delete and Insert to move a tuple across shards.
func (a ingestAPI) Update(rel string, oldValues, newValues []any) error {
	return a.send(ivm.OpUpdate, rel, oldValues, newValues)
}

// send resolves the relation schema, converts one facade value row (two
// for an update: old, then new) into a pooled scratch row and hands it
// to the sink, which has copied the values when it returns. Shards
// share dictionaries, so one conversion is valid on every shard.
func (a ingestAPI) send(kind ivm.OpKind, rel string, values, newValues []any) error {
	r := a.sink.Schema(rel)
	if r == nil {
		return fmt.Errorf("borg: unknown relation %s", rel)
	}
	scratch := rowScratch.Get().(*[]relation.Value)
	defer rowScratch.Put(scratch)
	row, err := coerceRow(r, values, (*scratch)[:0])
	if err == nil && kind == ivm.OpUpdate {
		row, err = coerceRow(r, newValues, row)
	}
	*scratch = row
	if err != nil {
		return err
	}
	t := ivm.Tuple{Rel: rel, Values: row[:r.NumAttrs()]}
	switch kind {
	case ivm.OpInsert:
		return a.sink.Insert(t)
	case ivm.OpDelete:
		return a.sink.Delete(t)
	}
	return a.sink.Update(t, ivm.Tuple{Rel: rel, Values: row[r.NumAttrs():]})
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

// dicts resolves the shared dictionaries of the named categorical
// attributes (models trained on cofactor snapshots translate category
// strings through them).
func (q *Query) dicts(attrs []string) map[string]*relation.Dict {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]*relation.Dict, len(attrs))
	for _, a := range attrs {
		out[a] = q.db.db.Dict(a)
	}
	return out
}

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

// ServerSnapshot is one published epoch of a ShardedServer: every read
// on it observes the same consistent state. On several shards it is the
// ring sum of one epoch per shard, and its Epoch is the sum of the
// shard epochs.
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
func (s *ServerSnapshot) Payload() Payload { return s.snap.Payload() }

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
func (s *ServerSnapshot) Covar() *ring.Covar { return s.snap.Stats() }

// Cofactor exposes the epoch's raw categorical cofactor element
// (read-only), nil unless the payload is PayloadCofactor.
func (s *ServerSnapshot) Cofactor() *ring.Cofactor { return s.snap.Cofactor() }

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
