package ivm

import (
	"fmt"

	"borg/internal/query"
	"borg/internal/ring"
)

// aggDef identifies one scalar aggregate of a maintained batch as a
// monomial over the global feature indexes: SUM(Π feats[k]^pows[k]),
// with the empty monomial being SUM(1) (the count). The covariance
// batch uses monomials of degree ≤ 2.
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
// maintainers: the covariance aggregate list plus the positions of its
// entries.
type scalarBatch struct {
	aggs []aggDef
	aggIndex
}

func newScalarBatch(n int) scalarBatch {
	return scalarBatch{aggs: covarAggs(n), aggIndex: newAggIndex(n)}
}

// newScalarBase is newBase for the scalar maintainers, which maintain
// the covariance payload only: they are the Figure 4 (right) baselines,
// and F-IVM is the one maintainer of the poly2 and cofactor payloads.
func newScalarBase(name string, j *query.Join, root string, features []string, opts []Option) (*base, error) {
	o := buildOptions(opts)
	if o.payload != PayloadCovar {
		return nil, fmt.Errorf("ivm: %s maintains the covar payload only, not %s; use NewFIVM", name, o.payload)
	}
	return newBase(j, root, features, o)
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
