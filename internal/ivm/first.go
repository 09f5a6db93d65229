package ivm

import (
	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/ring"
)

// FirstOrder is classical first-order IVM: delta processing with no
// auxiliary structures of any kind. Every insert evaluates its delta
// query — the join of the new tuple with all other base relations — from
// scratch by SCANNING those relations, once per aggregate of the batch,
// exactly as a classical engine evaluates a delta query it has no
// indexes for. This is the slowest strategy of Figure 4 (right) and
// exists as its baseline; on large streams it times out, as in the
// paper's one-hour-limit runs. It maintains the covariance payload only.
type FirstOrder struct {
	*base
	batch  scalarBatch
	result []float64
}

// NewFirstOrder creates a first-order maintainer over an initially empty
// copy of the join's relations. Any payload but PayloadCovar is an
// error.
func NewFirstOrder(j *query.Join, root string, features []string, opts ...Option) (*FirstOrder, error) {
	b, err := newScalarBase("first-order IVM", j, root, features, opts)
	if err != nil {
		return nil, err
	}
	m := &FirstOrder{base: b, batch: newScalarBatch(len(b.contFeats))}
	m.result = make([]float64, len(m.batch.aggs))
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
	for a := range m.batch.aggs {
		partial := localEval(n, row, m.batch.aggs[a])
		for ci, c := range n.children {
			partial *= m.down(c, n.childKey(ci, row), m.batch.aggs[a])
			if partial == 0 {
				break
			}
		}
		if partial != 0 {
			m.up(n, n.parentKey(row), a, partial)
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
	n, row, err := m.locate(t)
	if err != nil {
		return err
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
			m.up(n, n.parentKey(row), a, -partial)
		}
	}
	m.removeRow(n, row)
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
// its sibling subtrees and climbs. Deltas that reach the root add into
// the result (first-order IVM keeps no views, so the root sums are its
// only writes).
func (m *FirstOrder) up(n *node, key uint64, a int, partial float64) {
	p := n.parent
	if p == nil {
		m.result[a] += partial
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
			m.up(p, p.parentKey(int(r)), a, contrib)
		}
	}
}

// Count implements Maintainer.
func (m *FirstOrder) Count() float64 { return m.result[m.batch.count()] }

// Sum implements Maintainer.
func (m *FirstOrder) Sum(i int) float64 { return m.result[m.batch.sum(i)] }

// Moment implements Maintainer.
func (m *FirstOrder) Moment(i, j int) float64 { return m.result[m.batch.moment(i, j)] }

// Snapshot implements Maintainer.
func (m *FirstOrder) Snapshot() *ring.Covar { return m.batch.covar(m.result) }
