// Package serve is the concurrent streaming-serving layer over the F-IVM
// maintainer of internal/ivm — the one strategy it builds; higher- and
// first-order IVM are Figure 4 baselines only. A server is a long-lived
// session that ingests tuple inserts, deletes, and updates while serving
// snapshot-consistent statistics reads to arbitrarily many concurrent
// readers — the hybrid transactional/analytical shape where corrections
// and expirations stream in alongside new data.
//
// The paper's Section 5.2 argument — shared ring payloads make continuous
// maintenance of a model's sufficient statistics cheap enough to serve
// fresh models while data streams in — only pays off inside a runtime
// shaped like the workload: writes are frequent and tiny, reads want a
// consistent view and must never block the write path. The design here
// is the classic single-writer / immutable-snapshot arrangement of HTAP
// serving systems:
//
//   - Ingest. Ops (inserts, deletes, updates) enter a ring of
//     QueueDepth slots allocated once (any number of producer
//     goroutines, backpressure when every slot is filled); a producer
//     copies its tuple's values into its slot under the ring's lock.
//     ONE writer goroutine owns the maintainer — the maintainer stays
//     single-threaded and lock-free internally. An update is a
//     delete+insert pair the writer applies back to back, so no
//     snapshot splits it.
//
//   - Batching. The writer is work-conserving: under one lock it takes
//     the run of filled slots at the head, up to BatchSize ops, applies
//     the slots themselves through (*ivm.FIVM).ApplyBatch, frees them
//     under a second lock, and publishes a snapshot iff the queue is
//     now empty or BatchSize ops are unpublished; otherwise it takes
//     the next run. An idle or paced server publishes as soon as it
//     has caught up (no timer), a saturated one once per BatchSize
//     ops, and an epoch never trails by 2·BatchSize ops or more.
//     Published statistics are bitwise-identical to serial
//     tuple-at-a-time application of each batch grouped by relation.
//     A panic under the writer becomes the sticky Err, and the writer
//     keeps emptying the queue — discarding ops, failing barriers —
//     so no producer stays parked on a dead server.
//
//   - Epoch handoff. A publication fills a Snapshot — the header, then
//     the maintainer's payload (ivm.FIVM.PublishInto) — and swaps it
//     into an atomic pointer. A cofactor epoch's element is the root's
//     base plus a prefix of its append-only delta log
//     (ring.CofactorEpoch), materialized on first read, so the writer
//     never writes it. A read pins the snapshot it returns (see
//     Snapshot): an atomic add and two atomic loads, no lock, and what
//     it returns never changes, so readers never block the writer and
//     the writer never waits for readers. Once a publication has
//     superseded an epoch no reader pinned, the writer reuses it for a
//     later one — the header, its float backing and, through the
//     maintainer, a cofactor epoch's log window — so a publication
//     nobody reads allocates nothing; what a reader pinned is never
//     reused and goes to the GC once dropped.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"borg/internal/ivm"
	"borg/internal/obs"
	"borg/internal/plan"
	"borg/internal/query"
	"borg/internal/relation"
)

// Config tunes a Server. The zero value maintains the covariance
// payload with the default batching knobs.
type Config struct {
	// BatchSize is the most ops (inserts, deletes, updates) one
	// (*ivm.FIVM).ApplyBatch call takes, and the most a published epoch
	// may trail by under backlog: the writer publishes whenever it has
	// emptied the queue, and otherwise once BatchSize applied ops are
	// unpublished. Default 64.
	BatchSize int
	// QueueDepth is the most ops accepted and not yet applied: the
	// slots of the ingest ring, each with room for an update of the
	// widest relation. When every slot is filled producers wait.
	// Default 1024.
	QueueDepth int
	// Payload selects the maintained ring payload: ivm.PayloadCovar (the
	// default), ivm.PayloadPoly2 (degree-≤4 moments for polynomial
	// regression), or ivm.PayloadCofactor (per-categorical-group
	// covariance triples; categorical features become legal in the
	// feature list). Each snapshot publishes the payload's element
	// alongside the covariance triple, which stays exact under every
	// payload.
	Payload ivm.Payload
	// ReplanThreshold opts into automatic replanning: when the plan
	// drift ratio — largest live relation cardinality over the current
	// root's — reaches this value at a publication boundary, the writer
	// replans greedily and rebuilds the maintainer under the new order
	// (see Replan). 0 disables auto-replanning. Only greedy-planned
	// servers auto-replan; a pinned root is never overridden.
	ReplanThreshold float64
	// Obs receives the server's metric series (see internal/obs). Nil
	// creates a private registry, reachable through Metrics(); the
	// sharded tier passes one shared registry into every shard with
	// per-shard ObsLabels.
	Obs *obs.Registry
	// ObsLabels labels every metric series this server registers (the
	// sharded tier sets shard="i").
	ObsLabels obs.Labels
	// MetricsOff disables instrumentation entirely — no registry, no
	// timestamps, no atomic updates. The control arm of the obs
	// overhead benchmark; production servers leave it false.
	MetricsOff bool
	// Logger receives structured operational logs (epoch publications
	// at Debug, replans at Info, rejected ops and slow batches at
	// Warn). Nil disables logging; hot-path sites also honor the
	// handler's Enabled gate, so a disabled level costs one branch.
	Logger *slog.Logger
	// SlowBatchThreshold, when positive, logs a Warn for any batch
	// whose application exceeds it. 0 disables the warning.
	SlowBatchThreshold time.Duration
}

func (c *Config) defaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
}

// Snapshot is one published epoch: the maintainer's ivm.Published
// payload (its element, and the covariance triple Stats, Count, Sum and
// Moment read) under a header of counters and plan facts. All fields are
// frozen once a reader has it (Server.Snapshot pins it); readers may
// share a Snapshot freely across goroutines.
type Snapshot struct {
	ivm.Published
	// pins counts the reads in flight on this epoch and held is set once
	// one obtained it (see Server.Snapshot). Once a publication has
	// superseded the epoch the writer reuses it if it finds neither, and
	// otherwise never.
	pins atomic.Int32
	held atomic.Bool
	// Epoch is the publication sequence number (0 is the empty initial
	// snapshot).
	Epoch uint64
	// Inserts is how many tuple inserts had been applied when this
	// snapshot was taken (the insert half of an update counts here).
	Inserts uint64
	// Deletes is how many tuple deletes had been applied when this
	// snapshot was taken (the retraction half of an update counts here).
	Deletes uint64
	// Root is the join-tree root of the plan this epoch was maintained
	// under.
	Root string
	// PlanDepth is the longest root-to-leaf chain of the plan's
	// variable order.
	PlanDepth int
	// PlanWidth is the factorization width of the plan's variable order
	// (1 for acyclic joins).
	PlanWidth int
	// PlanGreedy reports whether the root was chosen greedily by the
	// planner (false when the caller pinned it).
	PlanGreedy bool
	// Drift is the plan-drift ratio at publication time: the largest
	// live relation cardinality divided by the current root's. 1.0
	// means the root is still the largest relation; larger values mean
	// churn has skewed relative sizes away from the plan (see
	// Config.ReplanThreshold).
	Drift float64
	// Replans counts completed plan rebuilds since the server started.
	Replans uint64
	// memo holds what readers derive from the epoch (see Derive).
	memoMu sync.Mutex
	memo   map[any]*derivation
}

// derivation is one Derive key's value, computed once.
type derivation struct {
	once sync.Once
	v    any
}

// Derive returns what fn computes from this epoch under key, running fn
// once per key for the epoch's lifetime: concurrent callers of a key wait
// for the first one's fn and share its value, which readers must not
// mutate. It is how a zoo round derives its statistics once for every
// model that reads them. Keys compare with ==; fn may Derive other keys.
func (s *Snapshot) Derive(key any, fn func() any) any {
	s.memoMu.Lock()
	d := s.memo[key]
	if d == nil {
		if s.memo == nil {
			s.memo = make(map[any]*derivation)
		}
		d = new(derivation)
		s.memo[key] = d
	}
	s.memoMu.Unlock()
	d.once.Do(func() { d.v = fn() })
	return d.v
}

// Merged starts a sharded tier's epoch over one epoch per shard (see
// ivm.Merge). The caller fills in the header.
func Merged(parts []*Snapshot) *Snapshot {
	pubs := make([]*ivm.Published, len(parts))
	for i, p := range parts {
		pubs[i] = &p.Published
	}
	m := new(Snapshot)
	ivm.Merge(&m.Published, pubs)
	return m
}

// ErrClosed is returned by operations on a closed server.
var ErrClosed = errors.New("serve: server is closed")

// barrier is a queued Flush, Cardinalities or Replan request: it holds a
// slot of its own, so it keeps its place in FIFO order among the tuple
// ops, and exactly one of its channels is set.
type barrier struct {
	flush chan error
	cards chan map[string]int
	// ack answers a replan onto root ("" = greedy; see Server.Replan).
	ack  chan error
	root string
}

// queue is the ingest ring: QueueDepth slots allocated once. A slot is
// an ivm.Op whose tuples point into the slot's own stride of vals, room
// for both halves of an update of the widest relation, so producers copy
// their values in and the writer hands a run of slots to ApplyBatch as
// it is. head is the oldest filled slot and n the filled ones, the run
// the writer has taken included: a slot is free again once applied.
type queue struct {
	mu     sync.Mutex
	space  sync.Cond // producers wait here while every slot is filled
	ready  sync.Cond // the writer waits here while none is
	ops    []ivm.Op
	bars   []*barrier  // non-nil: the slot is that barrier
	enq    []time.Time // enqueue stamps; nil when metrics are off
	vals   []relation.Value
	stride int
	head   int
	n      int
	closed bool
}

// take waits for a filled slot and returns the run at the head the
// writer applies next: the barrier alone when the head is one, else at
// most max tuple ops, stopping before a barrier and at the end of the
// array. ok is false once the queue is closed and empty.
func (q *queue) take(max int) (lo, k int, b *barrier, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return 0, 0, nil, false
		}
		q.ready.Wait()
	}
	lo, k = q.head, 1
	if b = q.bars[lo]; b != nil {
		q.bars[lo] = nil
		return lo, 1, b, true
	}
	for end := min(lo+q.n, lo+max, len(q.ops)); lo+k < end && q.bars[lo+k] == nil; k++ {
	}
	return lo, k, nil, true
}

// free returns the k slots taken last to the producers, waking them once
// for the whole run, and reports how many slots are still filled.
func (q *queue) free(k int) int {
	q.mu.Lock()
	q.head = (q.head + k) % len(q.ops)
	q.n -= k
	n := q.n
	q.mu.Unlock()
	q.space.Broadcast()
	return n
}

// Server owns one maintainer and serves it concurrently. Create with
// New, feed with Insert (any number of goroutines), read with Snapshot
// (any number of goroutines), and Close when done.
type Server struct {
	cfg      Config
	features []string
	// catFeatures are the categorical feature names in cofactor
	// group-slot order (empty unless Config.Payload is PayloadCofactor).
	catFeatures []string
	m           *ivm.FIVM
	schemas     map[string]*relation.Relation
	// join is the source join New was built from; Replan re-plans and
	// re-clones it. featArgs is the caller's original feature list (the
	// constructor argument, before the continuous/categorical split),
	// and relNames the join's relations in declaration order — the
	// deterministic reingest order of a replan. m's live relations are
	// swapped with m on replan, which is why schemas holds separate
	// metadata-only clones: producers read Schema concurrently and must
	// never observe the swap.
	join     *query.Join
	featArgs []string
	relNames []string

	q        queue
	snap     atomic.Pointer[Snapshot]
	finished chan struct{}

	// spare is a superseded epoch no reader pinned, for buildSnapshot to
	// reuse, and pubBy the maintainer that published the current epoch.
	// Writer-owned.
	spare *Snapshot
	pubBy *ivm.FIVM

	// lastErr is the writer's first maintenance error (or its panic):
	// what Err, Flush and Close report, readable without a barrier.
	lastErr atomic.Pointer[error]

	// queued counts tuple ops (inserts, deletes, updates) enqueued but
	// not yet covered by a published snapshot — including the batch the
	// writer is currently applying, so QueueLen()==0 really does mean
	// the snapshot is current.
	queued atomic.Int64

	// metrics holds the pre-resolved metric handles, nil when
	// Config.MetricsOff — every instrumentation site is one pointer
	// test away from free. log is Config.Logger (nil = silent).
	metrics *serveMetrics
	log     *slog.Logger

	// Writer-goroutine state; published to other goroutines only through
	// snap and the finished channel. root/planDepth/planWidth/planGreedy
	// describe the plan the maintainer is currently built under; drift
	// is recomputed at every publication; replans counts completed
	// rebuilds.
	// taken is the run of slots the writer holds; pending counts ops
	// applied since the last publication, oldest is the enqueue time of
	// the first op no epoch covers yet (zero: none, or metrics off).
	// barrier is the barrier being served, which a panic must still
	// answer (failed).
	taken      int
	inserts    uint64
	deletes    uint64
	epoch      uint64
	pending    int
	oldest     time.Time
	barrier    *barrier
	failed     bool
	root       string
	planDepth  int
	planWidth  int
	planGreedy bool
	drift      float64
	replans    uint64
}

// New starts a server maintaining the covariance statistics of the given
// features over an initially empty copy of the join's relations. A
// non-empty root pins the join-tree root and keeps the legacy static
// child order; an empty root hands the choice to the planning layer,
// which picks greedily from the source join's current cardinalities
// (see internal/plan) and keeps replanning available as churn skews
// relative sizes.
func New(j *query.Join, root string, features []string, cfg Config) (*Server, error) {
	cfg.defaults()
	popt := plan.Options{PinnedRoot: root, Static: true}
	if root == "" {
		popt = plan.Options{}
	}
	p, err := plan.New(j, popt)
	if err != nil {
		return nil, err
	}
	mopts := []ivm.Option{ivm.WithPayload(cfg.Payload)}
	if p.Greedy {
		mopts = append(mopts, ivm.WithCardinalities(p.Cardinalities))
	}
	m, err := ivm.NewFIVM(j, p.Root, features, mopts...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		// The maintained (continuous) features in snapshot index order;
		// with the cofactor payload the categorical features split off
		// into group slots.
		features:    append([]string(nil), m.ContFeatures()...),
		catFeatures: append([]string(nil), m.CatFeatures()...),
		m:           m,
		schemas:     make(map[string]*relation.Relation, len(j.Relations)),
		join:        j,
		featArgs:    append([]string(nil), features...),
		finished:    make(chan struct{}),
		root:        p.Root,
		planDepth:   p.Depth,
		planWidth:   p.Width,
		planGreedy:  p.Greedy,
		drift:       1,
	}
	for _, r := range j.Relations {
		// Metadata-only clones (schema + shared dictionaries, no rows):
		// producers resolve types and intern categorical values through
		// these concurrently, so they must survive a replan's maintainer
		// swap untouched. The dictionaries are shared with the
		// maintainer's live relations via the common source relation.
		s.schemas[r.Name] = r.CloneEmpty()
		s.relNames = append(s.relNames, r.Name)
		s.q.stride = max(s.q.stride, 2*r.NumAttrs())
	}
	s.q.ops = make([]ivm.Op, cfg.QueueDepth)
	s.q.bars = make([]*barrier, cfg.QueueDepth)
	s.q.vals = make([]relation.Value, cfg.QueueDepth*s.q.stride)
	s.q.space.L, s.q.ready.L = &s.q.mu, &s.q.mu
	s.log = cfg.Logger
	if !cfg.MetricsOff {
		s.q.enq = make([]time.Time, cfg.QueueDepth)
		// Handles resolve once here; everything after this line updates
		// them with bare atomic ops.
		if s.cfg.Obs == nil {
			s.cfg.Obs = obs.NewRegistry()
		}
		s.metrics = newServeMetrics(s.cfg.Obs, s.cfg.ObsLabels, s.QueueLen)
	}
	// The initial snapshot is the empty epoch; it carries the payload's
	// zero element, so readers can rely on Lifted and Cofactor being
	// non-nil exactly when the server maintains them.
	s.snap.Store(s.buildSnapshot(0, 0, 0))
	s.pubBy = m
	go s.run()
	return s, nil
}

// Features returns the maintained continuous feature names, in snapshot
// index order.
func (s *Server) Features() []string { return s.features }

// CatFeatures returns the maintained categorical feature names in
// cofactor group-slot order; empty unless Config.Payload is
// PayloadCofactor.
func (s *Server) CatFeatures() []string { return s.catFeatures }

// Payload reports the maintained ring payload.
func (s *Server) Payload() ivm.Payload { return s.cfg.Payload }

// Metrics returns the registry holding this server's metric series —
// the one passed in Config.Obs, or the private registry a nil Obs
// created. Nil when Config.MetricsOff disabled instrumentation.
func (s *Server) Metrics() *obs.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.cfg.Obs
}

// Schema returns a metadata-only view of the named relation, or nil.
// Callers may use its schema metadata and dictionaries (to resolve
// attribute types and intern categorical values — the dictionaries are
// shared with the live relations); it holds no rows, and it is stable
// across replans.
func (s *Server) Schema(name string) *relation.Relation { return s.schemas[name] }

// Insert enqueues one tuple insert. It validates the tuple's shape
// synchronously, then blocks only while every queue slot is filled
// (backpressure). The values are copied into the queue before Insert
// returns, so the caller may reuse t.Values at once. The insert is
// visible to readers once a snapshot covering it is published.
func (s *Server) Insert(t ivm.Tuple) error {
	if err := s.check(t); err != nil {
		return s.reject(err)
	}
	return s.push(ivm.OpInsert, t, ivm.Tuple{}, nil)
}

// Delete enqueues the retraction of one previously inserted tuple
// (matched by value, multiset semantics). Like Insert it validates the
// shape synchronously and copies the values before it returns; a delete
// whose target is not live when the writer applies it surfaces as a
// maintenance error through Flush and Close.
func (s *Server) Delete(t ivm.Tuple) error {
	if err := s.check(t); err != nil {
		return s.reject(err)
	}
	return s.push(ivm.OpDelete, t, ivm.Tuple{}, nil)
}

// Update enqueues a delete of old followed by an insert of new, applied
// back to back by the writer goroutine so no published snapshot ever
// shows the join without one or the other. Both tuples' values are
// copied before Update returns.
func (s *Server) Update(old, new ivm.Tuple) error {
	if err := s.check(old); err != nil {
		return s.reject(err)
	}
	if err := s.check(new); err != nil {
		return s.reject(err)
	}
	return s.push(ivm.OpUpdate, new, old, nil)
}

// reject accounts and logs one validation failure on its way back to
// the producer. Runs on producer goroutines: one atomic add plus a
// level-gated log call.
func (s *Server) reject(err error) error {
	if m := s.metrics; m != nil {
		m.rejected.Inc()
	}
	if l := s.log; l != nil && l.Enabled(context.Background(), slog.LevelWarn) {
		l.Warn("op rejected", "err", err)
	}
	return err
}

// check validates a tuple's relation and arity against the schemas.
func (s *Server) check(t ivm.Tuple) error {
	r, ok := s.schemas[t.Rel]
	if !ok {
		return fmt.Errorf("serve: unknown relation %s", t.Rel)
	}
	if len(t.Values) != r.NumAttrs() {
		return fmt.Errorf("serve: tuple for %s has %d values, want %d", t.Rel, len(t.Values), r.NumAttrs())
	}
	return nil
}

// push fills the tail slot with one tuple op, copying its values, or
// with barrier b, waiting while every slot is filled. A tuple op counts
// as queued until a publication covers it (or its application fails).
// An op Close has shut out returns ErrClosed; one that got a slot is
// applied, because the writer empties the queue before it stops.
func (s *Server) push(kind ivm.OpKind, t, old ivm.Tuple, b *barrier) error {
	var enq time.Time
	if s.metrics != nil {
		enq = time.Now()
	}
	q := &s.q
	q.mu.Lock()
	for q.n == len(q.ops) && !q.closed {
		q.space.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	i := (q.head + q.n) % len(q.ops)
	q.n++
	if q.enq != nil {
		q.enq[i] = enq
	}
	if q.bars[i] = b; b == nil {
		s.queued.Add(1)
		vals := q.vals[i*q.stride : (i+1)*q.stride]
		nt := copy(vals, t.Values)
		no := copy(vals[nt:], old.Values)
		q.ops[i] = ivm.Op{Kind: kind,
			Tuple: ivm.Tuple{Rel: t.Rel, Values: vals[:nt:nt]},
			Old:   ivm.Tuple{Rel: old.Rel, Values: vals[nt : nt+no : nt+no]}}
	}
	q.mu.Unlock()
	q.ready.Signal() // unlocked: the writer it wakes does not wait for the lock
	return nil
}

// Err reports the first maintenance error the writer has encountered
// (nil while healthy). Asynchronous failures — a delete whose target
// was never live, an update half-applied — surface here immediately,
// without waiting for a Flush barrier; Flush and Close return the same
// error.
func (s *Server) Err() error {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Snapshot returns the current published epoch and pins it, without a
// lock and never blocking the writer. It loads the current epoch; unless
// a read has held it already, it adds one to its pins and loads the
// current pointer again. When the epoch is still current the writer
// cannot have found it unpinned (see recycle), so the read marks it
// held: it is never reused, and the result is immutable. Otherwise the
// read backs off and retries. Nothing but pins and held is read before
// the recheck.
//
//borg:noalloc
func (s *Server) Snapshot() *Snapshot {
	for {
		sn := s.snap.Load()
		if sn.held.Load() {
			return sn
		}
		sn.pins.Add(1)
		ok := s.snap.Load() == sn
		if ok {
			sn.held.Store(true)
		}
		sn.pins.Add(-1)
		if ok {
			return sn
		}
	}
}

// QueueLen reports how many tuple ops are enqueued or applied but not
// yet covered by a published snapshot. Unlike the filled slots it
// counts the applied ops no epoch covers yet, so QueueLen()==0 implies
// the snapshot reflects every accepted op.
func (s *Server) QueueLen() int { return int(s.queued.Load()) }

// Flush is a write barrier: it waits until every op enqueued before
// the call is applied and published, and returns the first maintenance
// error if any occurred.
func (s *Server) Flush() error {
	ack := make(chan error, 1)
	return firstErr(await(s, &barrier{flush: ack}, ack))
}

// await enqueues one barrier and waits for the writer's answer on ack:
// the writer answers every barrier that got a slot, failed or closing.
func await[T any](s *Server, b *barrier, ack chan T) (T, error) {
	if err := s.push(0, ivm.Tuple{}, ivm.Tuple{}, b); err != nil {
		var none T
		return none, err
	}
	return <-ack, nil
}

// firstErr is the outcome of an error-valued barrier: the writer's
// answer, unless the barrier never reached it.
func firstErr(answer, closed error) error {
	if closed != nil {
		return closed
	}
	return answer
}

// Replan re-plans the server greedily from live cardinalities and, when
// the greedy root differs from the current one, rebuilds the maintainer
// under the new plan by batch-reingesting the live rows — behind the
// writer, so producers keep enqueueing and readers keep loading
// snapshots throughout. The new epoch is published atomically before
// Replan returns; no reader ever observes a mixed state, and the
// rebuilt statistics equal the old ones to float tolerance (any valid
// variable order maintains the same ring payloads). Cost is one pass
// over the live rows through ApplyBatch (~an ingest of the live state)
// plus transiently holding both maintainers. When the greedy root
// matches the current one, Replan only refreshes the published drift.
// Replan also re-enables greedy planning on a server whose root was
// pinned at construction.
func (s *Server) Replan() error { return s.replanRequest("") }

// ReplanTo is Replan with the root chosen by the caller's planner — the
// sharded tier plans once from cardinalities summed across its shards —
// instead of from this server's own. Like Replan it leaves the server
// greedy-planned, so auto-replanning keeps firing afterwards. An empty
// root means Replan.
func (s *Server) ReplanTo(root string) error {
	if root != "" {
		if _, ok := s.schemas[root]; !ok {
			return fmt.Errorf("serve: unknown relation %s", root)
		}
	}
	return s.replanRequest(root)
}

// replanRequest enqueues a replan barrier and waits for the writer's
// acknowledgment.
func (s *Server) replanRequest(root string) error {
	ack := make(chan error, 1)
	return firstErr(await(s, &barrier{ack: ack, root: root}, ack))
}

// Cardinalities returns the live per-relation row counts as of every op
// enqueued before the call — the planning input the sharded layer sums
// across shards to pick one global root. A failed writer answers nil;
// why is in Err.
func (s *Server) Cardinalities() (map[string]int, error) {
	ack := make(chan map[string]int, 1)
	m, err := await(s, &barrier{cards: ack}, ack)
	if err == nil && m == nil {
		err = s.Err()
	}
	return m, err
}

// Close stops the writer after draining already-queued ops and
// publishes a final snapshot. It returns the first maintenance error,
// if any. Close is idempotent. An op racing with Close — a producer
// parked on a full queue included — is either rejected with ErrClosed
// or fully applied and drained, never accepted and then silently
// dropped.
func (s *Server) Close() error {
	s.q.mu.Lock()
	s.q.closed = true
	s.q.space.Broadcast()
	s.q.ready.Signal()
	s.q.mu.Unlock()
	<-s.finished
	return s.Err()
}

// run is the writer goroutine: the only goroutine that touches the
// maintainer after New returns.
func (s *Server) run() {
	defer close(s.finished)
	for s.work() {
	}
}

// work is one take of the writer: a run of tuple ops is applied, a
// barrier served, and either is refused by a failed writer; then the
// slots are freed. It publishes whenever the queue is empty after the
// take — the snapshot is then current; there is nothing to wait for —
// and otherwise once BatchSize applied ops are unpublished, so no epoch
// covers 2·BatchSize ops or more. It reports false once the queue is
// closed and drained; a panic below ends the take in contain.
func (s *Server) work() (open bool) {
	defer s.contain()
	lo, k, b, open := s.q.take(s.cfg.BatchSize)
	if !open {
		return false
	}
	s.taken, s.barrier = k, b
	switch {
	case s.failed:
		s.refuse(b, k)
	case b != nil:
		s.serve(b)
	default:
		if m := s.metrics; m != nil {
			now := time.Now() // one clock read per take
			for _, t := range s.q.enq[lo : lo+k] {
				m.queueWait.Observe(int64(now.Sub(t)))
			}
			if s.oldest.IsZero() {
				s.oldest = s.q.enq[lo]
			}
		}
		s.applyBatch(s.q.ops[lo : lo+k])
	}
	s.barrier = nil
	left := s.q.free(k)
	s.taken = 0
	if left == 0 || s.pending >= s.cfg.BatchSize {
		s.publish()
	}
	return true
}

// serve answers one barrier in its place: everything before it is
// applied already.
func (s *Server) serve(b *barrier) {
	switch {
	case b.flush != nil:
		var start time.Time
		if s.metrics != nil {
			start = time.Now()
		}
		s.publish()
		if m := s.metrics; m != nil {
			m.flushNs.Observe(int64(time.Since(start)))
		}
		b.flush <- s.Err()
	case b.cards != nil:
		s.publish() // or the next batch would stack on this one, past the 2·BatchSize bound
		b.cards <- s.m.Cardinalities()
	default:
		err := s.timedReplan(b.root)
		s.forcePublish()
		b.ack <- err
	}
}

// contain is work's deferred half: it turns a panic on the writer
// goroutine into the server's sticky error. The maintainer may be half
// way through a mutation, so nothing is applied or published from here
// on (the last epoch stays readable), but the queue keeps being
// emptied: the barrier being served, the ops taken or not yet published
// and whatever the writer takes later are refused, and the taken slots
// freed — nobody waits on a dead writer.
func (s *Server) contain() {
	r := recover()
	if r == nil {
		return
	}
	s.failed = true
	err := fmt.Errorf("serve: writer panicked: %v", r)
	s.lastErr.Store(&err)
	if m := s.metrics; m != nil {
		m.panics.Inc()
	}
	if l := s.log; l != nil {
		l.Error("writer panicked; the server no longer applies ops", "panic", r, "stack", string(debug.Stack()))
	}
	s.queued.Add(-int64(s.pending))
	s.pending = 0
	if s.taken > 0 {
		s.refuse(s.barrier, s.taken)
		s.q.free(s.taken)
	}
	s.taken, s.barrier = 0, nil
}

// refuse answers, on behalf of a failed writer, barrier b or else a run
// of k tuple ops.
func (s *Server) refuse(b *barrier, k int) {
	switch {
	case b == nil:
		s.queued.Add(-int64(k))
	case b.flush != nil:
		b.flush <- s.Err()
	case b.cards != nil:
		b.cards <- nil
	default:
		b.ack <- s.Err()
	}
}

// setErr keeps the writer's first maintenance error.
func (s *Server) setErr(err error) {
	if s.lastErr.Load() == nil {
		s.lastErr.Store(&err)
	}
}

// applyBatch applies a run of taken slots through the maintainer's
// batch path and folds the result into the writer's accounting.
func (s *Server) applyBatch(ops []ivm.Op) {
	n := len(ops)
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	res := s.m.ApplyBatch(ops)
	s.inserts += res.Inserts
	s.deletes += res.Deletes
	if m := s.metrics; m != nil {
		elapsed := time.Since(start)
		m.batchSize.Observe(int64(n))
		m.deltaNs.Observe(res.DeltaNanos)
		m.mutateNs.Observe(res.MutateNanos)
		m.inserts.Add(res.Inserts)
		m.deletes.Add(res.Deletes)
		if res.Err != nil {
			m.applyErrs.Inc()
		}
		if t := s.cfg.SlowBatchThreshold; t > 0 && elapsed > t {
			if l := s.log; l != nil && l.Enabled(context.Background(), slog.LevelWarn) {
				l.Warn("slow batch", "ops", n, "dur", elapsed, "threshold", t)
			}
		}
	}
	if res.Err != nil {
		if l := s.log; l != nil && l.Enabled(context.Background(), slog.LevelWarn) {
			l.Warn("batch maintenance error", "ops", n, "fully_failed", res.FullyFailed, "err", res.Err)
		}
		s.setErr(res.Err)
	}
	// Ops that changed state (even half-applied updates) must reach a
	// snapshot before leaving the queue accounting; fully failed ops
	// will never be covered by one.
	s.pending += n - res.FullyFailed
	if res.FullyFailed > 0 {
		s.queued.Add(-int64(res.FullyFailed))
		if s.pending == 0 {
			s.oldest = time.Time{} // nothing left for an epoch to cover
		}
	}
}

// buildSnapshot publishes the maintainer's current payload as an epoch
// under a header filled from the writer's state: the spare, a superseded
// epoch no reader pinned, when there is one (see recycle), else a new
// one. A reused epoch is reset here, all but pins and held, which only
// readers write; its payload is reset and refilled by PublishInto.
func (s *Server) buildSnapshot(epoch, inserts, deletes uint64) *Snapshot {
	snap := s.spare
	s.spare = nil
	if snap == nil {
		snap = new(Snapshot)
	} else {
		snap.memo = nil
		if m := s.metrics; m != nil {
			m.recycled.Inc()
		}
	}
	snap.Epoch, snap.Inserts, snap.Deletes = epoch, inserts, deletes
	snap.Root, snap.PlanDepth, snap.PlanWidth = s.root, s.planDepth, s.planWidth
	snap.PlanGreedy, snap.Drift, snap.Replans = s.planGreedy, s.drift, s.replans
	s.m.PublishInto(&snap.Published)
	return snap
}

// recycle checks old, the epoch a publication just superseded: with no
// read in flight and none that held it, it becomes the spare the next
// buildSnapshot reuses. Go's atomics are sequentially consistent, so a
// read that pins old after the pins load finds the new epoch on its
// recheck and backs off, and one that pinned it before has set held
// before it unpinned. A held epoch, or one an earlier maintainer
// published (a replan swapped it out), is left to the GC.
func (s *Server) recycle(old *Snapshot, by *ivm.FIVM) {
	if by == s.m && old.pins.Load() == 0 && !old.held.Load() {
		s.spare = old
	}
}

// computeDrift recomputes the plan-drift ratio from the live relations,
// allocation-free (publication allocs are pinned to the epoch arena):
// largest live cardinality over the current root's, 1 when empty.
func (s *Server) computeDrift() float64 {
	max, rc := 0, 0
	for _, name := range s.relNames {
		n := s.m.Relation(name).NumRows()
		if n > max {
			max = n
		}
		if name == s.root {
			rc = n
		}
	}
	if max == 0 {
		return 1
	}
	if rc < 1 {
		rc = 1
	}
	return float64(max) / float64(rc)
}

// timedReplan wraps replan with plan-layer instrumentation: completed
// rebuilds (root actually changed) count and time; no-op requests and
// failures don't. Runs on the writer goroutine only.
func (s *Server) timedReplan(target string) error {
	before := s.replans
	oldRoot := s.root
	start := time.Now()
	err := s.replan(target)
	if s.replans > before {
		elapsed := time.Since(start)
		if m := s.metrics; m != nil {
			m.replans.Inc()
			m.replanNs.Observe(int64(elapsed))
		}
		if l := s.log; l != nil && l.Enabled(context.Background(), slog.LevelInfo) {
			l.Info("replanned", "from", oldRoot, "to", s.root, "dur", elapsed, "replans", s.replans)
		}
	}
	return err
}

// replan rebuilds the maintainer under a fresh plan: target is the root
// a caller planned, "" picks it greedily from the maintainer's live
// cardinalities. Either way the server is greedy-planned afterwards, so
// auto-replanning fires again. When the planned root matches the
// current one the tree rebuild is skipped. Otherwise the writer
// constructs a second maintainer under the new plan, reingests every
// live row through ApplyBatch in deterministic relation-declaration
// order, and swaps it in; a reingest failure keeps the old maintainer
// fully intact. Runs on the writer goroutine only.
func (s *Server) replan(target string) error {
	cards := s.m.Cardinalities()
	p, err := plan.New(s.join, plan.Options{PinnedRoot: target, Cardinalities: cards})
	if err != nil {
		return err
	}
	if p.Root == s.root {
		s.planGreedy = true
		return nil
	}
	mopts := []ivm.Option{ivm.WithPayload(s.cfg.Payload), ivm.WithCardinalities(cards)}
	nm, err := ivm.NewFIVM(s.join, p.Root, s.featArgs, mopts...)
	if err != nil {
		return err
	}
	// Reingest the survivors. Inserts do not touch s.inserts/s.deletes —
	// they are the same logical rows, re-expressed under the new order.
	// A chunk's values share one buffer, refilled once the chunk is
	// applied (ApplyBatch copies the rows it keeps).
	const replanChunk = 4096
	ops := make([]ivm.Op, 0, replanChunk)
	vals := make([]relation.Value, 0, replanChunk*s.q.stride/2)
	flushChunk := func() error {
		if len(ops) == 0 {
			return nil
		}
		res := nm.ApplyBatch(ops)
		ops, vals = ops[:0], vals[:0]
		if res.Err != nil {
			return fmt.Errorf("serve: replan reingest: %w", res.Err)
		}
		return nil
	}
	for _, name := range s.relNames {
		rel := s.m.Relation(name)
		for i := 0; i < rel.NumRows(); i++ {
			lo := len(vals)
			vals = rel.AppendRowTo(vals, i)
			ops = append(ops, ivm.Op{Kind: ivm.OpInsert, Tuple: ivm.Tuple{Rel: name, Values: vals[lo:len(vals):len(vals)]}})
			if len(ops) >= replanChunk {
				if err := flushChunk(); err != nil {
					return err
				}
			}
		}
	}
	if err := flushChunk(); err != nil {
		return err
	}
	s.m = nm
	s.spare = nil // the old maintainer's epochs go to the GC with it
	s.root, s.planDepth, s.planWidth, s.planGreedy = p.Root, p.Depth, p.Width, true
	s.replans++
	return nil
}

// forcePublish publishes a fresh epoch unconditionally — the epoch swap
// of a replan must become visible even when no tuple op is pending.
func (s *Server) forcePublish() {
	s.drift = s.computeDrift()
	s.epoch++
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	old, by := s.snap.Load(), s.pubBy
	s.snap.Store(s.buildSnapshot(s.epoch, s.inserts, s.deletes))
	s.pubBy = s.m
	s.recycle(old, by)
	if m := s.metrics; m != nil {
		now := time.Now()
		m.publishNs.Observe(int64(now.Sub(start)))
		if !s.oldest.IsZero() {
			m.freshnessNs.Observe(int64(now.Sub(s.oldest)))
			s.oldest = time.Time{}
		}
		m.epoch.Set(float64(s.epoch))
		m.drift.Set(s.drift)
		m.markPublish()
	}
	if l := s.log; l != nil && l.Enabled(context.Background(), slog.LevelDebug) {
		l.Debug("epoch published", "epoch", s.epoch, "inserts", s.inserts, "deletes", s.deletes, "covered", s.pending, "drift", s.drift)
	}
	s.queued.Add(-int64(s.pending))
	s.pending = 0
}

// publish swaps in a fresh snapshot covering every applied op. It is a
// no-op when nothing changed since the last publication — in
// particular, a quiescent server's flush barriers allocate nothing.
// Publication boundaries are also where auto-replanning fires: with a
// positive ReplanThreshold on a greedy-planned server, a drift ratio at
// or past the threshold triggers a greedy replan before the epoch is
// built, so the published snapshot already reflects the new plan.
func (s *Server) publish() {
	if s.pending == 0 {
		return
	}
	if s.cfg.ReplanThreshold > 0 && s.planGreedy {
		if drift := s.computeDrift(); drift >= s.cfg.ReplanThreshold {
			if err := s.timedReplan(""); err != nil {
				s.setErr(err)
			}
		}
	}
	s.forcePublish()
}
