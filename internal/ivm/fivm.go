package ivm

import (
	"cmp"
	"slices"

	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

// viewTree is the generic F-IVM view hierarchy: one payload of type E
// per join key per node, plus the root result. It is parameterized by
// the ring the payloads live in (ring.Algebra), which is what lets the
// SAME single-pass delta propagation maintain covariance triples
// (ring.CovarRing), lifted degree-2 moment vectors (ring.Poly2Ring) or
// group-keyed cofactor elements — the paper's claim that the factorized
// computation is ring-generic, realized in the maintenance path.
//
// Deltas are computed in the destination-passing forms of the algebra,
// into scratch elements that are recycled: an effect's delta is valid
// until the mutate phase that replays it ends, and a view that stores
// one copies it (views.merge). The root hook computes into the rest of
// the scratch in the mutate phase: a root tuple's phase keeps nothing.
type viewTree[E any] struct {
	alg ring.Algebra[E]
	// lift maps a tuple of node n, given by its values, to its ring
	// element, offered dst and the scratch to extract what it lifts into.
	// The default closure lifts the node's continuous features through
	// the algebra; the covar and cofactor payloads inject their own,
	// which lift into the node's ring slots (and, for cofactor, its
	// categorical group slots).
	lift   func(dst E, s *scratch[E], n *node, vals []relation.Value) E
	nodes  []*node
	view   []views[E] // by node id; the root's stays empty
	result E
	// emit folds a root delta into result: the algebra's AddInPlace unless
	// the payload's slots are numbered apart from the features (base.slotOf).
	emit func(result, delta E)
	// applyRoot adds what a root tuple with these values contributes,
	// negated for a retraction, to result: rootDelta, or for the covar
	// payload one fused product (covarRoot).
	applyRoot func(n *node, vals []relation.Value, neg bool)
	// scratch is the working memory of the delta computation at hand: a
	// delta phase's, or the tuple-at-a-time path's.
	scratch *scratch[E]
}

// scratch is the working memory of one tree's delta computations.
type scratch[E any] struct {
	// tmp holds the two ends of a product chain: each factor multiplies
	// tmp[cur] into the other and flips cur.
	tmp [2]E
	cur int
	// fac holds the factors of the product at hand (factors): a tuple's
	// child views are all looked up before the first is multiplied in.
	fac []E
	// slab[:used] are the elements kept since the last reset, slab[used:]
	// free ones.
	slab []E
	used int
	// effs holds the effect lists computed since the last reset, back to
	// back; fan is a stack of the fan-outs in progress.
	effs []viewEffect[E]
	fan  []fanRow
	// row, f and c hold the stored row being lifted, and its owned
	// feature values and categorical codes, for the span of one lift.
	row []relation.Value
	f   []float64
	c   []int32
}

// fanRow is one parent row of a fan-out: its key towards ITS parent and
// its position along the index chain that listed it.
type fanRow struct {
	key      uint64
	pos, row int32
}

func newViewTree[E any](alg ring.Algebra[E], nodes []*node) *viewTree[E] {
	return newViewTreeLift(alg, nodes, func(dst E, s *scratch[E], n *node, vals []relation.Value) E {
		s.f = n.featValsOf(s.f[:0], vals)
		return alg.LiftInto(dst, n.featIdx, s.f)
	})
}

// newViewTreeLift is newViewTree with a custom tuple-lift closure.
func newViewTreeLift[E any](alg ring.Algebra[E], nodes []*node,
	lift func(dst E, s *scratch[E], n *node, vals []relation.Value) E) *viewTree[E] {
	vt := &viewTree[E]{alg: alg, lift: lift, nodes: nodes,
		view: make([]views[E], len(nodes)), result: alg.Zero(), emit: alg.AddInPlace,
		scratch: &scratch[E]{tmp: [2]E{alg.Zero(), alg.Zero()}}}
	vt.applyRoot = vt.rootDelta
	for i := range vt.view {
		vt.view[i] = &mapViews[E]{alg: alg, m: make(map[uint64]E)}
	}
	return vt
}

// keep retains e until s is next reset and returns a free element to
// compute into in its place.
//
//borg:noalloc
func (vt *viewTree[E]) keep(s *scratch[E], e E) E {
	if s.used == len(s.slab) {
		vt.grow(s)
	}
	free := s.slab[s.used]
	s.slab[s.used] = e
	s.used++
	return free
}

func (vt *viewTree[E]) grow(s *scratch[E]) { s.slab = append(s.slab, vt.alg.Zero()) }

// reset frees everything kept and every effect list computed since the
// last reset. It runs where no computed effect is pending: before a
// delta phase, and after the tuple-at-a-time path has replayed its own.
//
//borg:noalloc
func (s *scratch[E]) reset() {
	s.used = 0
	clear(s.effs)
	s.effs = s.effs[:0]
}

// mul multiplies s's running product by v.
func (vt *viewTree[E]) mul(s *scratch[E], v E) {
	s.tmp[1-s.cur] = vt.alg.MulInto(s.tmp[1-s.cur], s.tmp[s.cur], v)
	s.cur = 1 - s.cur
}

// take keeps s's running product, negated for a retraction.
func (vt *viewTree[E]) take(s *scratch[E], neg bool) E {
	d := s.tmp[s.cur]
	if neg {
		d = vt.alg.NegInto(d, d)
	}
	s.tmp[s.cur] = vt.keep(s, d)
	return d
}

// factors gathers in s.fac the factors of what a tuple of node n with
// these values contributes: its lift, computed into s.tmp[0], then the
// child views in child order, which is the order of their feature
// slots; with from non-nil, delta stands in for child from's view. It
// reports false when a join partner is missing: the tuple contributes
// nothing (yet); it will contribute when the partner's own delta climbs
// past this node.
func (vt *viewTree[E]) factors(s *scratch[E], n *node, vals []relation.Value, from *node, delta E) bool {
	s.fac = append(s.fac[:0], delta) // the lift's place
	for ci, c := range n.children {
		cv := delta
		if c != from {
			var present bool
			if cv, present = vt.view[c.id].get(relation.KeyOfVals(n.childKeyCols[ci], vals)); !present {
				return false
			}
		}
		s.fac = append(s.fac, cv)
	}
	s.tmp[0] = vt.lift(s.tmp[0], s, n, vals)
	s.fac[0] = s.tmp[0]
	return true
}

// tupleDelta computes the product of a tuple's factors as s's running
// product; false when a join partner is missing.
func (vt *viewTree[E]) tupleDelta(s *scratch[E], n *node, vals []relation.Value, from *node, delta E) bool {
	if !vt.factors(s, n, vals, from, delta) {
		return false
	}
	s.cur = 0
	for _, cv := range s.fac[1:] {
		vt.mul(s, cv)
	}
	return true
}

// viewEffect is one pending write of a propagation pass: merge delta
// into n's view at key, or — with n nil — into the root result.
type viewEffect[E any] struct {
	n     *node
	key   uint64
	delta E
}

// computeEffects is the read-only half of delta propagation: it walks
// the leaf-to-root path and appends the writes the propagation performs
// to s.effs instead of performing them (applyTuple does).
// Everything it reads — the parent's child-edge index and rows, sibling
// views — lies OUTSIDE the write set of the effects it emits (n's own
// relation and the views on the n→root path), which is what lets the
// batch path run it for many tuples of one relation before any of them
// mutates. Its one write of state is the parent's edge index, built on
// the edge's first fan-out (childRows), over rows no effect touches. A
// fan-out folds the parent rows of each upward key in index-chain
// order and climbs key by key in ascending order, a fixed reduction
// order that makes the effect list — and with it every maintained float
// — deterministic.
func (vt *viewTree[E]) computeEffects(s *scratch[E], n *node, key uint64, delta E) {
	p := n.parent
	if p == nil { // nothing reads a view of the root: its delta is the result's
		s.effs = append(s.effs, viewEffect[E]{delta: delta})
		return
	}
	s.effs = append(s.effs, viewEffect[E]{n: n, key: key, delta: delta})
	base := len(s.fan)
	ix, r := p.childRows(n.childPos, key)
	for i := int32(0); r >= 0; i, r = i+1, ix.Next(r) {
		s.fan = append(s.fan, fanRow{key: p.parentKey(int(r)), pos: i, row: r})
	}
	slices.SortFunc(s.fan[base:], func(a, b fanRow) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.pos, b.pos))
	})
	// δ_p(k') = Σ_{t ∈ R_p matching} lift(t) ⨂ δ ⨂ Π_{c≠n} V_c, one run
	// of equal k' at a time. The recursion pushes onto s.fan above this
	// frame and pops before it returns.
	for i := base; i < len(s.fan); {
		var acc E
		k, some := s.fan[i].key, false
		for ; i < len(s.fan) && s.fan[i].key == k; i++ {
			s.row = p.rel.AppendRowTo(s.row[:0], int(s.fan[i].row))
			if !vt.tupleDelta(s, p, s.row, n, delta) {
				continue
			}
			if some {
				vt.alg.AddInPlace(acc, s.tmp[s.cur])
			} else {
				acc, some = vt.take(s, false), true
			}
		}
		if some {
			vt.computeEffects(s, p, k, acc)
		}
	}
	s.fan = s.fan[:base]
}

// tupleEffects is the delta phase of one tuple half of an op: the
// effects a tuple of n with these values triggers, negated for a
// retraction; nil when it contributes nothing, or is a root tuple's.
// vals may be the scratch's own row buffer: it is last read before the
// climb.
func (vt *viewTree[E]) tupleEffects(n *node, vals []relation.Value, neg bool) []viewEffect[E] {
	s := vt.scratch
	var none E
	if n.parent == nil || !vt.tupleDelta(s, n, vals, nil, none) {
		return nil
	}
	start := len(s.effs)
	vt.computeEffects(s, n, relation.KeyOfVals(n.parentKeyCols, vals), vt.take(s, neg))
	return s.effs[start:]
}

// rootDelta is the default root hook: the tuple's product, negated for
// a retraction, emitted into the result.
func (vt *viewTree[E]) rootDelta(n *node, vals []relation.Value, neg bool) {
	var none E
	if s := vt.scratch; vt.tupleDelta(s, n, vals, nil, none) {
		vt.emit(vt.result, vt.take(s, neg))
	}
}

// applyTuple is the write half of one tuple half, after its row
// mutation: a root tuple's contribution is added to the result, any
// other tuple's effects are replayed.
func (vt *viewTree[E]) applyTuple(n *node, vals []relation.Value, neg bool, effs []viewEffect[E]) {
	if n.parent == nil {
		vt.applyRoot(n, vals, neg)
		return
	}
	for _, e := range effs {
		if e.n == nil {
			vt.emit(vt.result, e.delta)
		} else {
			vt.view[e.n.id].merge(e.key, e.delta)
		}
	}
}

// propagateRow is the tuple-at-a-time path: stored row's current
// contribution at n (negated for a retraction, which the caller follows
// with the physical removal) is merged into n's view and climbs towards
// the root through the parent's index on n's join key; a root row's is
// added to the result.
func (vt *viewTree[E]) propagateRow(n *node, row int, neg bool) {
	s := vt.scratch
	s.row = n.rel.AppendRowTo(s.row[:0], row)
	vt.applyTuple(n, s.row, neg, vt.tupleEffects(n, s.row, neg))
	s.reset()
}

// deltaTree is what FIVM asks of its view tree whatever the payload
// (a batcher): tuple-at-a-time propagation and batch application.
type deltaTree interface {
	propagateRow(n *node, row int, neg bool)
	apply(ops []Op) BatchResult
}

// FIVM is the factorized incremental view maintenance strategy (Nikolic &
// Olteanu, SIGMOD'18): one view hierarchy over the join tree whose
// payloads are ring elements. A single delta propagation along the
// leaf-to-root path maintains the entire aggregate batch.
//
// By default the payloads are covariance-ring triples. With
// WithPayload(PayloadPoly2) the SAME single hierarchy instead carries
// lifted degree-2 elements (ring.Poly2), whose degree-≤2 prefix is the
// covariance triple — so the covariance statistics come for free and
// the degree-≤4 moments needed by polynomial regression are maintained
// by the identical propagation, at a constant-factor higher payload
// cost. With WithPayload(PayloadCofactor) it carries categorical
// cofactor elements (ring.Cofactor): the covariance triple per group of
// categorical values, lifted over each node's owned categorical AND
// continuous variables at once.
type FIVM struct {
	*base
	ring ring.CovarRing
	// tree drives the maintained hierarchy, whatever its payload; exactly
	// one of cv/p2/cf is non-nil and names it by its ring, for the reads.
	tree deltaTree
	cv   *viewTree[*ring.Covar]
	p2   *viewTree[*ring.Poly2]
	pr   *ring.Poly2Ring
	cf   *viewTree[*ring.Cofactor]
	// root is the cofactor root result, cf's emit target.
	root *ring.CofactorRoot
	// marg caches the covariance triple of a poly2 root, which is what
	// every scalar read of such a maintainer is served from: it is folded
	// once after an apply (which clears margOK), not per read.
	marg   ring.Covar
	margOK bool
}

// triple returns the maintained covariance triple, valid until the next
// apply: the covar root itself, the cofactor root's running marginal, or
// the triple of the poly2 root.
func (m *FIVM) triple() *ring.Covar {
	switch {
	case m.cv != nil:
		return m.cv.result
	case m.root != nil:
		return m.root.Marginal()
	}
	if !m.margOK {
		m.p2.result.CovarInto(&m.marg)
		m.margOK = true
	}
	return &m.marg
}

// NewFIVM creates an F-IVM maintainer over an initially empty copy of the
// join's relations, rooted at the named relation.
func NewFIVM(j *query.Join, root string, features []string, opts ...Option) (*FIVM, error) {
	o := buildOptions(opts)
	b, err := newBase(j, root, features, o)
	if err != nil {
		return nil, err
	}
	m := &FIVM{base: b, ring: ring.CovarRing{N: len(b.contFeats)}}
	switch o.payload {
	case PayloadPoly2:
		m.pr = ring.NewPoly2Ring(len(b.contFeats))
		m.p2 = newViewTree[*ring.Poly2](m.pr, m.nodes)
		m.tree = &batcher[*ring.Poly2]{base: b, viewTree: m.p2, m: m}
	case PayloadCofactor:
		cfr := ring.CofactorRing{N: len(b.contFeats), K: len(b.catFeats)}
		m.cf = newViewTreeLift[*ring.Cofactor](cfr, m.nodes,
			func(dst *ring.Cofactor, s *scratch[*ring.Cofactor], n *node, vals []relation.Value) *ring.Cofactor {
				s.f, s.c = n.featValsOf(s.f[:0], vals), n.catValsOf(s.c[:0], vals)
				return cfr.LiftCatInto(dst, n.slots, s.f, n.catIdx, s.c)
			})
		m.root = ring.NewCofactorRoot(cfr, b.slotOf)
		m.cf.emit = func(_, delta *ring.Cofactor) { m.root.Add(delta) }
		m.tree = &batcher[*ring.Cofactor]{base: b, viewTree: m.cf, m: m}
	default:
		m.cv = newViewTreeLift[*ring.Covar](m.ring, m.nodes,
			func(dst *ring.Covar, s *scratch[*ring.Covar], n *node, vals []relation.Value) *ring.Covar {
				s.f = n.featValsOf(s.f[:0], vals)
				return m.ring.LiftInto(dst, n.slots, s.f)
			})
		m.cv.emit = func(result, delta *ring.Covar) { result.AddMapped(delta, b.slotOf) }
		m.cv.applyRoot = covarRoot(m.ring, m.cv, b.slotOf)
		m.tree = &batcher[*ring.Covar]{base: b, viewTree: m.cv, m: m}
	}
	return m, nil
}

// Name implements Maintainer.
func (m *FIVM) Name() string { return "F-IVM" }

// Insert implements Maintainer: one ring-valued delta propagation.
func (m *FIVM) Insert(t Tuple) error {
	n, row, err := m.append(t)
	if err != nil {
		return err
	}
	m.margOK = false
	m.tree.propagateRow(n, row, false)
	return nil
}

// Delete implements Maintainer: one ring-valued retraction. The
// tuple's current contribution — lift(t) ⨂ the child views, exactly
// the insert delta — is propagated negated, so a single pass restores
// every view payload and the root element simultaneously. A missing
// child view means the tuple never contributed (it was waiting for a
// join partner), so only the physical removal remains.
func (m *FIVM) Delete(t Tuple) error {
	n, row, err := m.locate(t)
	if err != nil {
		return err
	}
	m.margOK = false
	m.tree.propagateRow(n, row, true)
	m.removeRow(n, row)
	return nil
}

// ApplyBatch applies a batch of ops with the two-phase scheme of
// batch.go: the per-op deltas of up to 64 same-relation ops are
// computed read-only against the state before them, then one phase
// mutates rows, indexes, and views in op order. The result does not
// depend on the runtime's worker count: it is bitwise-identical to
// applying the same ops one at a time grouped by relation (stable
// within each relation); failed ops do not stop the batch.
func (m *FIVM) ApplyBatch(ops []Op) BatchResult {
	m.margOK = false
	return m.tree.apply(ops)
}

// Count implements Maintainer.
func (m *FIVM) Count() float64 { return m.triple().Count }

// Sum implements Maintainer.
func (m *FIVM) Sum(i int) float64 { return m.triple().Sum[i] }

// Moment implements Maintainer.
func (m *FIVM) Moment(i, j int) float64 { return m.triple().Q[i*m.ring.N+j] }

// Snapshot implements Maintainer: a deep copy of the maintained triple
// (for a lifted maintainer the degree-≤2 extraction, for a cofactor
// maintainer the marginal over all categorical groups).
func (m *FIVM) Snapshot() *ring.Covar { return m.triple().Clone() }

// SnapshotInto copies the maintained statistics into dst, reusing
// dst's backing when pre-sized — Snapshot without the allocation.
//
//borg:vet-ok deadexport — benchmarks/e2e times it (until ROADMAP item 1(d) moves that row)
func (m *FIVM) SnapshotInto(dst *ring.Covar) { m.triple().CopyInto(dst) }

// CatFeatures returns the categorical feature names in cofactor
// group-slot order; empty unless the cofactor payload is maintained.
func (m *FIVM) CatFeatures() []string { return m.catFeats }

// SnapshotCofactor returns the maintained categorical cofactor element
// as of this call, materialized from the root's current epoch, or nil
// when the maintainer was not built with WithPayload(PayloadCofactor).
// The element is immutable: it is never written again, by the
// maintainer or by a reader, so it may be handed to other goroutines
// while applies continue.
//
//borg:vet-ok deadexport — benchmarks/e2e times it (until ROADMAP item 1(d) moves that row)
func (m *FIVM) SnapshotCofactor() *ring.Cofactor {
	if m.root == nil {
		return nil
	}
	var ep ring.CofactorEpoch
	m.root.Publish(&ep) // never handed back: its window is not reused
	return ep.Element()
}

// PublishInto publishes the maintained payload as one epoch into dst
// (see Published for when its element and triple are read). dst is a
// zero Published, or one this maintainer published before that no
// reader obtained: the writer hands an unread epoch back, and this call
// resets it and reuses its storage. Into a zero dst it allocates one
// float backing, for the triple (a cofactor root's running marginal)
// and, under PayloadPoly2, the copied lifted element; into a handed-back
// one it allocates nothing, and a cofactor epoch handed back returns its
// log window to the root (see ring.CofactorRoot). A cofactor epoch's
// element is recorded, not copied.
func (m *FIVM) PublishInto(dst *Published) {
	dst.bind(m.ring.N, m.pr)
	switch {
	case m.p2 != nil:
		m.p2.result.CopyInto(dst.Lifted)
	case m.root != nil:
		m.root.Marginal().CopyInto(&dst.stats)
		m.root.Publish(&dst.epoch)
		dst.payload = PayloadCofactor
	default:
		m.cv.result.CopyInto(&dst.stats)
	}
}
