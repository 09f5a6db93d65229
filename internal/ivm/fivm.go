package ivm

import (
	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

// viewTree is the generic F-IVM view hierarchy: one payload of type E
// per join key per node, plus the root result. It is parameterized by
// the ring the payloads live in (ring.Algebra), which is what lets the
// SAME single-pass delta propagation maintain covariance triples
// (ring.CovarRing) or lifted degree-2 moment vectors (ring.Poly2Ring) —
// the paper's claim that the factorized computation is ring-generic,
// realized in the maintenance path.
type viewTree[E any] struct {
	alg ring.Algebra[E]
	// lift/liftVals map a tuple (a stored row, or a value tuple not yet
	// stored) to its ring element at node n. The default closures lift
	// the node's continuous features through the algebra; payloads with
	// categorical slots (cofactor) or per-aggregate monomials (the
	// scalar strategies' group-keyed payloads) inject their own.
	lift     func(n *node, row int) E
	liftVals func(n *node, vals []relation.Value) E
	views    map[*node]map[uint64]E
	result   E
}

func newViewTree[E any](alg ring.Algebra[E], root *node) *viewTree[E] {
	return newViewTreeLift(alg, root,
		func(n *node, row int) E { return alg.Lift(n.featIdx, n.vals(row)) },
		func(n *node, vals []relation.Value) E { return alg.Lift(n.featIdx, n.featValsOf(vals)) })
}

// newViewTreeLift is newViewTree with custom tuple-lift closures.
func newViewTreeLift[E any](alg ring.Algebra[E], root *node,
	lift func(n *node, row int) E, liftVals func(n *node, vals []relation.Value) E) *viewTree[E] {
	vt := &viewTree[E]{alg: alg, lift: lift, liftVals: liftVals,
		views: make(map[*node]map[uint64]E), result: alg.Zero()}
	var init func(n *node)
	init = func(n *node) {
		vt.views[n] = make(map[uint64]E)
		for _, c := range n.children {
			init(c)
		}
	}
	init(root)
	return vt
}

// tupleDelta computes row's current contribution at node n: lift(t) ⨂
// the child views. ok is false when a join partner is missing — the
// tuple contributes nothing (yet); it will contribute when the partner's
// own delta climbs past this node.
func (vt *viewTree[E]) tupleDelta(n *node, row int) (delta E, ok bool) {
	delta = vt.lift(n, row)
	for ci, c := range n.children {
		cv, present := vt.views[c][n.childKey(ci, row)]
		if !present {
			var zero E
			return zero, false
		}
		delta = vt.alg.Mul(delta, cv)
	}
	return delta, true
}

// tupleDeltaVals is tupleDelta against a value tuple instead of a
// stored row — the batch path computes deltas before (inserts) or
// independently of (deletes) the physical row mutation.
func (vt *viewTree[E]) tupleDeltaVals(n *node, vals []relation.Value) (delta E, ok bool) {
	delta = vt.liftVals(n, vals)
	for ci, c := range n.children {
		cv, present := vt.views[c][keyOfVals(n.rel, n.childKeyCols[ci], vals)]
		if !present {
			var zero E
			return zero, false
		}
		delta = vt.alg.Mul(delta, cv)
	}
	return delta, true
}

// viewEffect is one pending write of a propagation pass: merge delta
// into n's view at key, or — with n nil — into the root result.
type viewEffect[E any] struct {
	n     *node
	key   uint64
	delta E
}

// computeEffects is the read-only half of delta propagation: it walks
// the leaf-to-root path exactly as propagate does, but records the
// writes it would perform instead of performing them. Everything it
// reads — the parent's child-edge index and rows, sibling views — lies
// OUTSIDE the write set of the effects it emits (n's own relation and
// the views on the n→root path), which is what lets the batch path run
// it concurrently for many tuples of one relation. Fanout deltas are
// expanded in ascending key order, a fixed reduction order that makes
// the effect list — and with it every maintained float — deterministic
// instead of following Go's randomized map iteration.
func (vt *viewTree[E]) computeEffects(n *node, key uint64, delta E, out []viewEffect[E]) []viewEffect[E] {
	out = append(out, viewEffect[E]{n: n, key: key, delta: delta})
	p := n.parent
	if p == nil {
		out = append(out, viewEffect[E]{delta: delta})
		return out
	}
	// δ_p(k') = Σ_{t ∈ R_p matching} lift(t) ⨂ Π_{c≠n} V_c ⨂ δ, the
	// ring-valued instance of the exec grouped-fold fanout kernel.
	rows := p.childIndexes[n.childPos].Rows(key)
	deltas := exec.GroupedFold(rows,
		func(r int) uint64 { return p.parentKey(r) },
		func(r int) (E, bool) {
			contrib := vt.alg.Mul(vt.lift(p, r), delta)
			for ci, c := range p.children {
				if c == n {
					continue
				}
				cv, present := vt.views[c][p.childKey(ci, r)]
				if !present {
					var zero E
					return zero, false
				}
				contrib = vt.alg.Mul(contrib, cv)
			}
			return contrib, true
		},
		func(dst, v E) E { vt.alg.AddInPlace(dst, v); return dst })
	for _, k := range sortedKeys(deltas) {
		out = vt.computeEffects(p, k, deltas[k], out)
	}
	return out
}

// applyEffects replays a recorded propagation: the write half.
func (vt *viewTree[E]) applyEffects(effs []viewEffect[E]) {
	for _, e := range effs {
		if e.n == nil {
			vt.alg.AddInPlace(vt.result, e.delta)
			continue
		}
		v := vt.views[e.n]
		if cur, present := v[e.key]; present {
			vt.alg.AddInPlace(cur, e.delta)
			// A retraction that drains a key's support leaves the exact
			// additive identity (integer-exact data cancels bitwise);
			// prune it so view memory tracks the live database, not the
			// churn history. Missing and present-zero entries are
			// interchangeable to every reader: both multiply a delta to
			// nothing.
			if vt.alg.IsZero(cur) {
				delete(v, e.key)
			}
		} else if !vt.alg.IsZero(e.delta) {
			v[e.key] = vt.alg.Clone(e.delta)
		}
	}
}

// propagate merges δ into n's view at the given key and climbs towards
// the root through the parent's index on n's join key.
func (vt *viewTree[E]) propagate(n *node, key uint64, delta E) {
	vt.applyEffects(vt.computeEffects(n, key, delta, nil))
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
	// Exactly one of cv/p2/cf is non-nil, selecting the payload ring.
	cv  *viewTree[*ring.Covar]
	p2  *viewTree[*ring.Poly2]
	pr  *ring.Poly2Ring
	cf  *viewTree[*ring.Cofactor]
	cfr ring.CofactorRing
	// cfMarg caches the marginal of cf.result over its groups, which is
	// what every scalar read of a cofactor maintainer is served from: it
	// is folded once after an apply (which clears cfMargOK), not per read.
	cfMarg   ring.Covar
	cfMargOK bool
}

// marginal returns the continuous statistics of a cofactor maintainer,
// valid until the next apply.
func (m *FIVM) marginal() *ring.Covar {
	if !m.cfMargOK {
		m.cf.result.MarginalInto(&m.cfMarg)
		m.cfMargOK = true
	}
	return &m.cfMarg
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
		m.p2 = newViewTree[*ring.Poly2](m.pr, m.root)
	case PayloadCofactor:
		m.cfr = ring.CofactorRing{N: len(b.contFeats), K: len(b.catFeats)}
		m.cf = newViewTreeLift[*ring.Cofactor](m.cfr, m.root,
			func(n *node, row int) *ring.Cofactor {
				return m.cfr.LiftCat(n.featIdx, n.vals(row), n.catIdx, n.catVals(row))
			},
			func(n *node, vals []relation.Value) *ring.Cofactor {
				return m.cfr.LiftCat(n.featIdx, n.featValsOf(vals), n.catIdx, n.catValsOf(vals))
			})
	default:
		m.cv = newViewTree[*ring.Covar](m.ring, m.root)
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
	if m.p2 != nil {
		if delta, ok := m.p2.tupleDelta(n, row); ok {
			m.p2.propagate(n, n.parentKey(row), delta)
		}
		return nil
	}
	if m.cf != nil {
		m.cfMargOK = false
		if delta, ok := m.cf.tupleDelta(n, row); ok {
			m.cf.propagate(n, n.parentKey(row), delta)
		}
		return nil
	}
	if delta, ok := m.cv.tupleDelta(n, row); ok {
		m.cv.propagate(n, n.parentKey(row), delta)
	}
	return nil
}

// Delete implements Maintainer: one ring-valued retraction. The
// tuple's current contribution — lift(t) ⨂ the child views, exactly
// the insert delta — is propagated Neg-lifted, so a single pass
// restores every view payload and the root element simultaneously. A
// missing child view means the tuple never contributed (it was waiting
// for a join partner), so only the physical removal remains.
func (m *FIVM) Delete(t Tuple) error {
	n, row, err := m.locate(t)
	if err != nil {
		return err
	}
	key := n.parentKey(row)
	if m.p2 != nil {
		delta, contributed := m.p2.tupleDelta(n, row)
		m.removeRow(n, row)
		if contributed {
			m.p2.propagate(n, key, m.pr.Neg(delta))
		}
		return nil
	}
	if m.cf != nil {
		m.cfMargOK = false
		delta, contributed := m.cf.tupleDelta(n, row)
		m.removeRow(n, row)
		if contributed {
			m.cf.propagate(n, key, m.cfr.Neg(delta))
		}
		return nil
	}
	delta, contributed := m.cv.tupleDelta(n, row)
	m.removeRow(n, row)
	if contributed {
		m.cv.propagate(n, key, m.ring.Neg(delta))
	}
	return nil
}

// ApplyBatch implements Maintainer: per-op ring deltas (tupleDeltaVals
// plus the recorded climb) computed morsel-parallel against batch-start
// state, then replayed serially in op order.
func (m *FIVM) ApplyBatch(ops []Op) BatchResult {
	serial := func(op *Op) (uint64, uint64, bool, error) { return serialApply(m, op) }
	if m.p2 != nil {
		effects := func(n *node, vals []relation.Value, neg bool) []viewEffect[*ring.Poly2] {
			delta, ok := m.p2.tupleDeltaVals(n, vals)
			if !ok {
				return nil
			}
			if neg {
				delta = m.pr.Neg(delta)
			}
			return m.p2.computeEffects(n, keyOfVals(n.rel, n.parentKeyCols, vals), delta, nil)
		}
		return applyOps(m.base, ops,
			func(op *Op) opEffects[[]viewEffect[*ring.Poly2]] {
				return computeOpEffects(m.base, op, effects)
			},
			func(op *Op, e *opEffects[[]viewEffect[*ring.Poly2]]) (uint64, uint64, bool, error) {
				return applyOpEffects(m.base, op, e, m.p2.applyEffects)
			},
			serial)
	}
	if m.cf != nil {
		m.cfMargOK = false
		effects := func(n *node, vals []relation.Value, neg bool) []viewEffect[*ring.Cofactor] {
			delta, ok := m.cf.tupleDeltaVals(n, vals)
			if !ok {
				return nil
			}
			if neg {
				delta = m.cfr.Neg(delta)
			}
			return m.cf.computeEffects(n, keyOfVals(n.rel, n.parentKeyCols, vals), delta, nil)
		}
		return applyOps(m.base, ops,
			func(op *Op) opEffects[[]viewEffect[*ring.Cofactor]] {
				return computeOpEffects(m.base, op, effects)
			},
			func(op *Op, e *opEffects[[]viewEffect[*ring.Cofactor]]) (uint64, uint64, bool, error) {
				return applyOpEffects(m.base, op, e, m.cf.applyEffects)
			},
			serial)
	}
	effects := func(n *node, vals []relation.Value, neg bool) []viewEffect[*ring.Covar] {
		delta, ok := m.cv.tupleDeltaVals(n, vals)
		if !ok {
			return nil
		}
		if neg {
			delta = m.ring.Neg(delta)
		}
		return m.cv.computeEffects(n, keyOfVals(n.rel, n.parentKeyCols, vals), delta, nil)
	}
	return applyOps(m.base, ops,
		func(op *Op) opEffects[[]viewEffect[*ring.Covar]] {
			return computeOpEffects(m.base, op, effects)
		},
		func(op *Op, e *opEffects[[]viewEffect[*ring.Covar]]) (uint64, uint64, bool, error) {
			return applyOpEffects(m.base, op, e, m.cv.applyEffects)
		},
		serial)
}

// Count implements Maintainer.
func (m *FIVM) Count() float64 {
	if m.p2 != nil {
		return m.p2.result.Count()
	}
	if m.cf != nil {
		return m.marginal().Count
	}
	return m.cv.result.Count
}

// Sum implements Maintainer.
func (m *FIVM) Sum(i int) float64 {
	if m.p2 != nil {
		return m.p2.result.M[m.pr.SumIndex(i)]
	}
	if m.cf != nil {
		return m.marginal().Sum[i]
	}
	return m.cv.result.Sum[i]
}

// Moment implements Maintainer.
func (m *FIVM) Moment(i, j int) float64 {
	if m.p2 != nil {
		return m.p2.result.M[m.pr.MomentIndex(i, j)]
	}
	if m.cf != nil {
		return m.marginal().Q[i*m.ring.N+j]
	}
	return m.cv.result.Q[i*m.ring.N+j]
}

// Snapshot implements Maintainer: a deep copy of the root triple (for a
// lifted maintainer the degree-≤2 extraction, for a cofactor maintainer
// the marginal over all categorical groups).
func (m *FIVM) Snapshot() *ring.Covar {
	if m.p2 != nil {
		return m.p2.result.Covar()
	}
	if m.cf != nil {
		return m.marginal().Clone()
	}
	return m.cv.result.Clone()
}

// SnapshotLifted implements Maintainer: a deep copy of the maintained
// lifted degree-2 element, or nil when the maintainer was built without
// WithLifted.
func (m *FIVM) SnapshotLifted() *ring.Poly2 {
	if m.p2 == nil {
		return nil
	}
	return m.p2.result.Clone()
}

// SnapshotInto implements Maintainer.
func (m *FIVM) SnapshotInto(dst *ring.Covar) {
	if m.p2 != nil {
		m.p2.result.CovarInto(dst)
		return
	}
	if m.cf != nil {
		m.marginal().CopyInto(dst)
		return
	}
	m.cv.result.CopyInto(dst)
}

// SnapshotLiftedInto implements Maintainer.
func (m *FIVM) SnapshotLiftedInto(dst *ring.Poly2) bool {
	if m.p2 == nil {
		return false
	}
	m.p2.result.CopyInto(dst)
	return true
}

// SnapshotCofactor implements Maintainer: the root element published by
// ring.Cofactor.Snapshot, or nil for other payloads. It costs one
// pointer-slice copy; the groups themselves are shared with the root
// accumulator, which from then on copies a group before its first write
// to it — so an epoch pays for the groups its ops touched, not for the
// live ones.
func (m *FIVM) SnapshotCofactor() *ring.Cofactor {
	if m.cf == nil {
		return nil
	}
	return m.cf.result.Snapshot()
}

// Result exposes the maintained covariance triple (read-only; for a
// lifted maintainer it is extracted fresh per call, for a cofactor
// maintainer it is the cached marginal, valid until the next apply).
func (m *FIVM) Result() *ring.Covar {
	if m.p2 != nil {
		return m.p2.result.Covar()
	}
	if m.cf != nil {
		return m.marginal()
	}
	return m.cv.result
}
