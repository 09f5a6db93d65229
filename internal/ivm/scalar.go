package ivm

import (
	"sort"

	"borg/internal/ring"
)

// aggDef identifies one scalar aggregate of a maintained batch as a
// monomial over the global feature indexes: SUM(Π feats[k]^pows[k]),
// with the empty monomial being SUM(1) (the count). The covariance
// batch uses monomials of degree ≤ 2; the lifted degree-2 batch extends
// the same representation to degree ≤ 4.
//
// The scalar maintainers (first-order, higher-order) maintain each
// aggregate independently; F-IVM carries all of them in one ring
// element.
type aggDef struct {
	feats []int   // ascending global feature indexes
	pows  []uint8 // parallel powers, each ≥ 1
}

// covarAggs enumerates the covariance batch over n features:
// 1 count + n sums + n(n+1)/2 second moments, laid out as aggIndex
// expects.
func covarAggs(n int) []aggDef {
	out := []aggDef{{}}
	for i := 0; i < n; i++ {
		out = append(out, aggDef{feats: []int{i}, pows: []uint8{1}})
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if i == j {
				out = append(out, aggDef{feats: []int{i}, pows: []uint8{2}})
			} else {
				out = append(out, aggDef{feats: []int{i, j}, pows: []uint8{1, 1}})
			}
		}
	}
	return out
}

// liftedAggs enumerates the lifted degree-2 batch: one aggregate per
// monomial of the given Poly2Ring, IN RING INDEX ORDER — so a result
// vector maintained against it is laid out exactly like ring.Poly2.M
// and snapshots copy straight across.
func liftedAggs(r *ring.Poly2Ring) []aggDef {
	out := make([]aggDef, r.Len())
	for i := range out {
		vars, pows := r.Monomial(i)
		out[i] = aggDef{feats: vars, pows: pows}
	}
	return out
}

// localEval computes the product of agg's factors owned by node n for
// row `row` (1 when n owns none of them).
func localEval(n *node, row int, a aggDef) float64 {
	v := 1.0
	for k, fi := range n.featIdx {
		for t, f := range a.feats {
			if f != fi {
				continue
			}
			x := n.rel.Float(n.featCols[k], row)
			for p := uint8(0); p < a.pows[t]; p++ {
				v *= x
			}
		}
	}
	return v
}

// aggIndex reads aggregates out of a per-aggregate result vector laid
// out as by covarAggs.
type aggIndex struct {
	n       int
	sumBase int
	momBase int
}

func newAggIndex(n int) aggIndex {
	return aggIndex{n: n, sumBase: 1, momBase: 1 + n}
}

func (ix aggIndex) count() int { return 0 }

func (ix aggIndex) sum(i int) int { return ix.sumBase + i }

func (ix aggIndex) moment(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row-major upper triangle offset of (i, j) with i<=j.
	return ix.momBase + i*ix.n - i*(i-1)/2 + (j - i)
}

// scalarBatch is the shared result-vector machinery of the scalar
// maintainers: the aggregate list plus the positions of the covariance
// entries in it, for either layout (covarAggs or liftedAggs).
type scalarBatch struct {
	aggs []aggDef
	n    int
	// lifted is the ring whose monomial order the result vector follows,
	// nil for the plain covariance layout.
	lifted *ring.Poly2Ring
	ix     aggIndex
}

// newScalarBatch resolves the batch for n features, lifted or not.
func newScalarBatch(n int, lifted bool) scalarBatch {
	if lifted {
		r := ring.NewPoly2Ring(n)
		return scalarBatch{aggs: liftedAggs(r), n: n, lifted: r}
	}
	return scalarBatch{aggs: covarAggs(n), n: n, ix: newAggIndex(n)}
}

func (b scalarBatch) count() int { return 0 } // both layouts lead with SUM(1)

func (b scalarBatch) sum(i int) int {
	if b.lifted != nil {
		return b.lifted.SumIndex(i)
	}
	return b.ix.sum(i)
}

func (b scalarBatch) moment(i, j int) int {
	if b.lifted != nil {
		return b.lifted.MomentIndex(i, j)
	}
	return b.ix.moment(i, j)
}

// covar packs a result vector into one covariance-ring triple — the
// scalar maintainers' Snapshot.
func (b scalarBatch) covar(result []float64) *ring.Covar {
	c := (ring.CovarRing{N: b.n}).Zero()
	c.Count = result[b.count()]
	for i := 0; i < b.n; i++ {
		c.Sum[i] = result[b.sum(i)]
		for j := 0; j < b.n; j++ {
			c.Q[i*b.n+j] = result[b.moment(i, j)]
		}
	}
	return c
}

// liftedSnapshot packs a lifted-layout result vector into a ring.Poly2
// (nil for the plain covariance layout).
func (b scalarBatch) liftedSnapshot(result []float64) *ring.Poly2 {
	if b.lifted == nil {
		return nil
	}
	out := b.lifted.Zero()
	copy(out.M, result)
	return out
}

// covarInto is covar without the allocation: the triple is written into
// dst, reusing its backing when pre-sized.
func (b scalarBatch) covarInto(result []float64, dst *ring.Covar) {
	dst.N = b.n
	if len(dst.Sum) != b.n {
		dst.Sum = make([]float64, b.n)
	}
	if len(dst.Q) != b.n*b.n {
		dst.Q = make([]float64, b.n*b.n)
	}
	dst.Count = result[b.count()]
	for i := 0; i < b.n; i++ {
		dst.Sum[i] = result[b.sum(i)]
		for j := 0; j < b.n; j++ {
			dst.Q[i*b.n+j] = result[b.moment(i, j)]
		}
	}
}

// catTotals flattens per-aggregate group-keyed results into the plain
// scalar result-vector layout by marginalizing each aggregate over its
// categorical groups.
func catTotals(results []*ring.CatScalar) []float64 {
	out := make([]float64, len(results))
	for a, r := range results {
		out[a] = r.Total()
	}
	return out
}

// cofactorSnapshot packs per-aggregate group-keyed results (covar
// layout) into one cofactor element with k categorical slots: the
// inverse of the per-aggregate split, grouping each live categorical
// key's count/sum/moment scalars back into one covariance triple. The
// group keys are treated as opaque — the ring owns their encoding.
func (b scalarBatch) cofactorSnapshot(results []*ring.CatScalar, k int) *ring.Cofactor {
	cr := ring.CovarRing{N: b.n}
	out := ring.CofactorRing{N: b.n, K: k}.Zero()
	seen := make(map[string]bool)
	var keys []string
	for _, r := range results {
		//borg:nondeterministic-ok — set union: each live key is recorded exactly once, then sorted below
		for key := range r.G {
			if !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		g := cr.Zero()
		g.Count = results[b.count()].G[key]
		for i := 0; i < b.n; i++ {
			g.Sum[i] = results[b.sum(i)].G[key]
			for j := 0; j < b.n; j++ {
				g.Q[i*b.n+j] = results[b.moment(i, j)].G[key]
			}
		}
		if !cr.IsZero(g) {
			out.AddGroup(key, g) // ascending keys: an append
		}
	}
	return out
}

// liftedInto copies a lifted-layout result vector into dst (false for
// the plain covariance layout, leaving dst alone).
func (b scalarBatch) liftedInto(result []float64, dst *ring.Poly2) bool {
	if b.lifted == nil {
		return false
	}
	backing := dst.M
	if len(backing) != len(result) {
		backing = make([]float64, b.lifted.Len())
	}
	b.lifted.Bind(dst, backing)
	copy(dst.M, result)
	return true
}
