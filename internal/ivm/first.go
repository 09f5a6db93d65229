package ivm

import (
	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

// FirstOrder is classical first-order IVM: delta processing with no
// auxiliary structures of any kind. Every insert evaluates its delta
// query — the join of the new tuple with all other base relations — from
// scratch by SCANNING those relations, once per aggregate of the batch,
// exactly as a classical engine evaluates a delta query it has no
// indexes for. This is the slowest strategy of Figure 4 (right) and
// exists as its baseline; on large streams it times out, as in the
// paper's one-hour-limit runs.
type FirstOrder struct {
	*base
	batch  scalarBatch
	result []float64
	// Cofactor payload: per-aggregate group-keyed root results; every
	// delta query is still recomputed from scratch, it just carries a
	// map of per-categorical-group scalars instead of one float. Nil
	// otherwise.
	cfResult []*ring.CatScalar
	csr      ring.CatScalarRing
}

// NewFirstOrder creates a first-order maintainer over an initially empty
// copy of the join's relations.
func NewFirstOrder(j *query.Join, root string, features []string, opts ...Option) (*FirstOrder, error) {
	o := buildOptions(opts)
	b, err := newBase(j, root, features, o)
	if err != nil {
		return nil, err
	}
	batch := newScalarBatch(len(b.contFeats), o.payload == PayloadPoly2)
	m := &FirstOrder{base: b, batch: batch}
	if o.payload == PayloadCofactor {
		m.csr = ring.CatScalarRing{K: len(b.catFeats)}
		m.cfResult = make([]*ring.CatScalar, len(batch.aggs))
		for a := range m.cfResult {
			m.cfResult[a] = m.csr.Zero()
		}
		setBatcher(b, m, nil, m.catTupleEffects, m.applyCatEffects)
		return m, nil
	}
	m.result = make([]float64, len(m.batch.aggs))
	// ApplyBatch: the per-op delta-query evaluations — by far the dominant
	// cost of this strategy, each a set of scans the exec runtime splits
	// across its workers — run against phase-start state, then the root
	// sums replay in op order.
	setBatcher(b, m, nil, m.tupleEffects, m.applyEffects)
	return m, nil
}

// Name implements Maintainer.
func (m *FirstOrder) Name() string { return "first-order IVM" }

// Insert implements Maintainer: one full delta-query evaluation per
// aggregate.
func (m *FirstOrder) Insert(t Tuple) error {
	n, row, err := m.append(t)
	if err != nil {
		return err
	}
	if m.cfResult != nil {
		m.catDeltaRow(n, row, false, m.addCatResult)
		return nil
	}
	for a := range m.batch.aggs {
		partial := localEval(n, row, m.batch.aggs[a])
		for ci, c := range n.children {
			partial *= m.down(c, n.childKey(ci, row), m.batch.aggs[a])
			if partial == 0 {
				break
			}
		}
		if partial != 0 {
			m.up(n, n.parentKey(row), a, partial, m.addResult)
		}
	}
	return nil
}

// Delete implements Maintainer: the retracted tuple's current
// contribution is recomputed exactly as on the insert path — one full
// delta-query evaluation per aggregate against the other base relations
// (which a delete in relation n never scans n itself, so the doomed row
// cannot feed its own delta) — and climbs negated. The row then leaves
// the live relation and indexes.
func (m *FirstOrder) Delete(t Tuple) error {
	n, row, h, err := m.locate(t)
	if err != nil {
		return err
	}
	if m.cfResult != nil {
		m.catDeltaRow(n, row, true, m.addCatResult)
		m.removeRow(n, row, h)
		return nil
	}
	for a := range m.batch.aggs {
		partial := localEval(n, row, m.batch.aggs[a])
		for ci, c := range n.children {
			partial *= m.down(c, n.childKey(ci, row), m.batch.aggs[a])
			if partial == 0 {
				break
			}
		}
		if partial != 0 {
			m.up(n, n.parentKey(row), a, -partial, m.addResult)
		}
	}
	m.removeRow(n, row, h)
	return nil
}

// down recomputes aggregate a over the subtree rooted at n, restricted to
// rows matching key — a fresh scan of the base relation (the defining
// trait of first-order maintenance), run through the exec sum-where
// kernel.
func (m *FirstOrder) down(n *node, key uint64, a aggDef) float64 {
	keyOf := exec.KeyFunc(n.rel.KeyFunc(n.parentKeyCols))
	return exec.SumWhere(m.rt, n.rel.NumRows(), keyOf, key, func(r int) float64 {
		v := localEval(n, r, a)
		for ci, c := range n.children {
			if v == 0 {
				break
			}
			v *= m.down(c, n.childKey(ci, r), a)
		}
		return v
	})
}

// up expands the delta towards the root: the exec selection kernel scans
// the parent relation for matching tuples, then each match recomputes
// its sibling subtrees and climbs. Deltas that reach the root go to
// emit — m.addResult on the serial path, an effect recorder on the
// batch path (first-order IVM keeps no views, so the root sums are its
// only writes and the whole traversal is read-only).
func (m *FirstOrder) up(n *node, key uint64, a int, partial float64, emit func(a int, v float64)) {
	p := n.parent
	if p == nil {
		emit(a, partial)
		return
	}
	keyOf := exec.KeyFunc(p.rel.KeyFunc(p.childKeyCols[n.childPos]))
	for _, r := range exec.SelectWhere(m.rt, p.rel.NumRows(), keyOf, key) {
		contrib := localEval(p, int(r), m.batch.aggs[a]) * partial
		for ci, c := range p.children {
			if c == n || contrib == 0 {
				continue
			}
			contrib *= m.down(c, p.childKey(ci, int(r)), m.batch.aggs[a])
		}
		if contrib != 0 {
			m.up(p, p.parentKey(int(r)), a, contrib, emit)
		}
	}
}

func (m *FirstOrder) addResult(a int, v float64) { m.result[a] += v }

func (m *FirstOrder) addCatResult(a int, v *ring.CatScalar) {
	m.csr.AddInPlace(m.cfResult[a], v)
}

// catDeltaRow evaluates the full per-aggregate delta queries a stored
// row triggers under the cofactor payload, emitting group-keyed root
// arrivals (negated when neg — the delete half).
func (m *FirstOrder) catDeltaRow(n *node, row int, neg bool, emit func(a int, v *ring.CatScalar)) {
	for a := range m.batch.aggs {
		agg := m.batch.aggs[a]
		partial := m.csr.LiftVal(n.catIdx, n.catVals(row), localEval(n, row, agg))
		for ci, c := range n.children {
			if m.csr.IsZero(partial) {
				break
			}
			partial = m.csr.Mul(partial, m.downCat(c, n.childKey(ci, row), agg))
		}
		if m.csr.IsZero(partial) {
			continue
		}
		if neg {
			partial = m.csr.Neg(partial)
		}
		m.upCat(n, n.parentKey(row), a, partial, emit)
	}
}

// downCat recomputes aggregate a over the subtree rooted at n restricted
// to rows matching key, carrying the per-categorical-group split — a
// fresh scan, like down, folded in row order so every maintained float
// is deterministic.
func (m *FirstOrder) downCat(n *node, key uint64, a aggDef) *ring.CatScalar {
	keyOf := exec.KeyFunc(n.rel.KeyFunc(n.parentKeyCols))
	out := m.csr.Zero()
	for _, r := range exec.SelectWhere(m.rt, n.rel.NumRows(), keyOf, key) {
		v := m.csr.LiftVal(n.catIdx, n.catVals(int(r)), localEval(n, int(r), a))
		for ci, c := range n.children {
			if m.csr.IsZero(v) {
				break
			}
			v = m.csr.Mul(v, m.downCat(c, n.childKey(ci, int(r)), a))
		}
		m.csr.AddInPlace(out, v)
	}
	return out
}

// upCat expands a group-keyed delta towards the root, mirroring up.
func (m *FirstOrder) upCat(n *node, key uint64, a int, partial *ring.CatScalar, emit func(a int, v *ring.CatScalar)) {
	p := n.parent
	if p == nil {
		emit(a, partial)
		return
	}
	agg := m.batch.aggs[a]
	keyOf := exec.KeyFunc(p.rel.KeyFunc(p.childKeyCols[n.childPos]))
	for _, r := range exec.SelectWhere(m.rt, p.rel.NumRows(), keyOf, key) {
		contrib := m.csr.Mul(m.csr.LiftVal(p.catIdx, p.catVals(int(r)), localEval(p, int(r), agg)), partial)
		for ci, c := range p.children {
			if c == n || m.csr.IsZero(contrib) {
				continue
			}
			contrib = m.csr.Mul(contrib, m.downCat(c, p.childKey(ci, int(r)), agg))
		}
		if !m.csr.IsZero(contrib) {
			m.upCat(p, p.parentKey(int(r)), a, contrib, emit)
		}
	}
}

// tupleEffects evaluates the full delta query a tuple with these values
// triggers (negated for the delete half), recording the root arrivals
// as effects. Every scan touches only OTHER relations — down covers
// child subtrees, up the ancestors and their sibling subtrees, never n
// itself — so the evaluation reads only batch-start state for any mix
// of same-relation ops.
func (m *FirstOrder) tupleEffects(n *node, vals []relation.Value, neg bool) []scalarEffect {
	var out []scalarEffect
	emit := func(a int, v float64) {
		out = append(out, scalarEffect{a: int32(a), delta: v})
	}
	for a := range m.batch.aggs {
		partial := localEvalVals(n, vals, m.batch.aggs[a])
		for ci, c := range n.children {
			partial *= m.down(c, relation.KeyOfVals(n.childKeyCols[ci], vals), m.batch.aggs[a])
			if partial == 0 {
				break
			}
		}
		if partial == 0 {
			continue
		}
		if neg {
			partial = -partial
		}
		m.up(n, relation.KeyOfVals(n.parentKeyCols, vals), a, partial, emit)
	}
	return out
}

// applyEffects replays recorded root arrivals (the only writes
// first-order maintenance performs besides the physical row mutation).
func (m *FirstOrder) applyEffects(effs []scalarEffect) {
	for _, e := range effs {
		m.result[e.a] += e.delta
	}
}

// catScalarEffect is one group-keyed root arrival of the cofactor
// payload's batch path.
type catScalarEffect struct {
	a     int32
	delta *ring.CatScalar
}

// catTupleEffects is tupleEffects for the cofactor payload: full delta
// queries carrying the per-group split, recording group-keyed root
// arrivals.
func (m *FirstOrder) catTupleEffects(n *node, vals []relation.Value, neg bool) []catScalarEffect {
	var out []catScalarEffect
	emit := func(a int, v *ring.CatScalar) {
		out = append(out, catScalarEffect{a: int32(a), delta: v})
	}
	for a := range m.batch.aggs {
		agg := m.batch.aggs[a]
		partial := m.csr.LiftVal(n.catIdx, n.catValsOf(nil, vals), localEvalVals(n, vals, agg))
		for ci, c := range n.children {
			if m.csr.IsZero(partial) {
				break
			}
			partial = m.csr.Mul(partial, m.downCat(c, relation.KeyOfVals(n.childKeyCols[ci], vals), agg))
		}
		if m.csr.IsZero(partial) {
			continue
		}
		if neg {
			partial = m.csr.Neg(partial)
		}
		m.upCat(n, relation.KeyOfVals(n.parentKeyCols, vals), a, partial, emit)
	}
	return out
}

// applyCatEffects replays recorded group-keyed root arrivals.
func (m *FirstOrder) applyCatEffects(effs []catScalarEffect) {
	for _, e := range effs {
		m.csr.AddInPlace(m.cfResult[e.a], e.delta)
	}
}

// Count implements Maintainer.
func (m *FirstOrder) Count() float64 {
	if m.cfResult != nil {
		return m.cfResult[m.batch.count()].Total()
	}
	return m.result[m.batch.count()]
}

// Sum implements Maintainer.
func (m *FirstOrder) Sum(i int) float64 {
	if m.cfResult != nil {
		return m.cfResult[m.batch.sum(i)].Total()
	}
	return m.result[m.batch.sum(i)]
}

// Moment implements Maintainer.
func (m *FirstOrder) Moment(i, j int) float64 {
	if m.cfResult != nil {
		return m.cfResult[m.batch.moment(i, j)].Total()
	}
	return m.result[m.batch.moment(i, j)]
}

// Snapshot implements Maintainer.
func (m *FirstOrder) Snapshot() *ring.Covar {
	if m.cfResult != nil {
		return m.batch.covar(catTotals(m.cfResult))
	}
	return m.batch.covar(m.result)
}

// SnapshotLifted implements Maintainer.
func (m *FirstOrder) SnapshotLifted() *ring.Poly2 { return m.batch.liftedSnapshot(m.result) }

// SnapshotInto implements Maintainer.
func (m *FirstOrder) SnapshotInto(dst *ring.Covar) {
	if m.cfResult != nil {
		m.batch.covarInto(catTotals(m.cfResult), dst)
		return
	}
	m.batch.covarInto(m.result, dst)
}

// SnapshotLiftedInto implements Maintainer. Copies into dst's
// pre-sized backing without allocating.
//
//borg:noalloc
func (m *FirstOrder) SnapshotLiftedInto(dst *ring.Poly2) bool {
	return m.batch.liftedInto(m.result, dst)
}

// SnapshotCofactor implements Maintainer.
func (m *FirstOrder) SnapshotCofactor() *ring.Cofactor {
	if m.cfResult == nil {
		return nil
	}
	return m.batch.cofactorSnapshot(m.cfResult, m.csr.K)
}
