package ivm

import (
	"slices"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/ring"
)

// HigherOrder is DBToaster-style higher-order IVM: delta processing with
// materialized intermediate views, but — unlike F-IVM — one independent
// view hierarchy per aggregate. Every insert triggers one delta
// propagation per aggregate, each repeating the index navigation and hash
// lookups that F-IVM performs once, which is exactly the architectural
// difference the Figure 4 (right) experiment measures. It maintains the
// covariance payload only.
type HigherOrder struct {
	*base
	batch scalarBatch
	// views[n][a] is aggregate a's view at node n: join key → value.
	views  map[*node][]map[uint64]float64
	result []float64
}

// NewHigherOrder creates a higher-order maintainer over an initially
// empty copy of the join's relations. Any payload but PayloadCovar is
// an error.
func NewHigherOrder(j *query.Join, root string, features []string, opts ...Option) (*HigherOrder, error) {
	b, err := newScalarBase("higher-order IVM", j, root, features, opts)
	if err != nil {
		return nil, err
	}
	m := &HigherOrder{base: b, batch: newScalarBatch(len(b.contFeats))}
	m.views = make(map[*node][]map[uint64]float64)
	m.result = make([]float64, len(m.batch.aggs))
	for _, n := range m.nodes {
		vs := make([]map[uint64]float64, len(m.batch.aggs))
		for a := range vs {
			vs[a] = make(map[uint64]float64)
		}
		m.views[n] = vs
	}
	return m, nil
}

// Name implements Maintainer.
func (m *HigherOrder) Name() string { return "higher-order IVM" }

// Insert implements Maintainer: one delta propagation per aggregate.
func (m *HigherOrder) Insert(t Tuple) error {
	n, row, err := m.append(t)
	if err != nil {
		return err
	}
	for a := range m.batch.aggs {
		delta := localEval(n, row, m.batch.aggs[a])
		zero := false
		for ci, c := range n.children {
			cv, ok := m.views[c][a][n.childKey(ci, row)]
			if !ok {
				zero = true
				break
			}
			delta *= cv
		}
		if zero {
			continue
		}
		m.propagate(n, a, n.parentKey(row), delta)
	}
	return nil
}

// Delete implements Maintainer: one negated delta propagation per
// aggregate. The retracted tuple's current contribution to each view is
// the same product the insert path forms — local factors times the
// child views — so propagating its negation restores every view and the
// root to the state without the tuple. A missing child view means the
// tuple never contributed (it was waiting for a join partner), so only
// the physical removal remains.
func (m *HigherOrder) Delete(t Tuple) error {
	n, row, err := m.locate(t)
	if err != nil {
		return err
	}
	key := n.parentKey(row)
	for a := range m.batch.aggs {
		delta := localEval(n, row, m.batch.aggs[a])
		zero := false
		for ci, c := range n.children {
			cv, ok := m.views[c][a][n.childKey(ci, row)]
			if !ok {
				zero = true
				break
			}
			delta *= cv
		}
		if zero {
			continue
		}
		m.propagate(n, a, key, -delta)
	}
	m.removeRow(n, row)
	return nil
}

// propagate merges a scalar delta into aggregate a's view at node n and
// climbs to the root. The fanout over the parent's matching tuples is
// the exec grouped-fold kernel, grouping contributions by the parent's
// own upward key, and the climb visits those keys in ascending order (a
// fixed reduction order, so every maintained float is deterministic).
// A fanout reads the parent's index and rows and the sibling views,
// none of which a write on the n→root path touches.
func (m *HigherOrder) propagate(n *node, a int, key uint64, delta float64) {
	vs := m.views[n][a]
	// Prune entries that reach exactly zero (a retraction draining the
	// key's support cancels bitwise on integer-exact data): missing and
	// present-zero are interchangeable to every reader — both zero the
	// multiplicative delta — and pruning keeps view memory proportional
	// to the live database under sustained churn.
	if nv := vs[key] + delta; nv == 0 {
		delete(vs, key)
	} else {
		vs[key] = nv
	}
	p := n.parent
	if p == nil {
		m.result[a] += delta
		return
	}
	var rows []int32
	for ix, r := p.childRows(n.childPos, key); r >= 0; r = ix.Next(r) {
		rows = append(rows, r)
	}
	deltas := exec.GroupedFold(rows,
		func(r int) uint64 { return p.parentKey(r) },
		func(r int) (float64, bool) {
			contrib := localEval(p, r, m.batch.aggs[a]) * delta
			for ci, c := range p.children {
				if c == n {
					continue
				}
				cv, ok := m.views[c][a][p.childKey(ci, r)]
				if !ok {
					return 0, false
				}
				contrib *= cv
			}
			return contrib, true
		},
		func(dst, v float64) float64 { return dst + v })
	for _, k := range sortedKeys(deltas) {
		m.propagate(p, a, k, deltas[k])
	}
}

// sortedKeys returns m's keys in ascending order — the fixed reduction
// order that makes delta propagation deterministic (and so
// bitwise-reproducible across runs and worker counts) instead of
// following Go's randomized map iteration.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Count implements Maintainer.
func (m *HigherOrder) Count() float64 { return m.result[m.batch.count()] }

// Sum implements Maintainer.
func (m *HigherOrder) Sum(i int) float64 { return m.result[m.batch.sum(i)] }

// Moment implements Maintainer.
func (m *HigherOrder) Moment(i, j int) float64 { return m.result[m.batch.moment(i, j)] }

// Snapshot implements Maintainer.
func (m *HigherOrder) Snapshot() *ring.Covar { return m.batch.covar(m.result) }
