package relation

import "sort"

// SortBy reorders the relation's rows lexicographically by the given
// column positions. Category columns compare by code, Double columns by
// value. Sorting is the preparation step for trie-based factorized
// evaluation (internal/factor), which needs each relation ordered by the
// variable-order prefix of its attributes.
func (r *Relation) SortBy(cols ...int) {
	perm := make([]int32, r.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := int(perm[a]), int(perm[b])
		for _, c := range cols {
			col := &r.cols[c]
			if col.Type == Category {
				va, vb := col.C[ra], col.C[rb]
				if va != vb {
					return va < vb
				}
			} else {
				va, vb := col.F[ra], col.F[rb]
				if va != vb {
					return va < vb
				}
			}
		}
		return false
	})
	r.Permute(perm)
}

// Permute reorders rows so that new row i is old row perm[i].
func (r *Relation) Permute(perm []int32) {
	for ci := range r.cols {
		col := &r.cols[ci]
		if col.Type == Category {
			out := make([]int32, r.rows)
			for i, p := range perm {
				out[i] = col.C[p]
			}
			col.C = out
		} else {
			out := make([]float64, r.rows)
			for i, p := range perm {
				out[i] = col.F[p]
			}
			col.F = out
		}
	}
}
