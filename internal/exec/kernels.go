package exec

// Typed columnar aggregation kernels. These are the inner loops that
// internal/core (slot evaluation), internal/engine (aggregate scans over
// the materialized data matrix), and internal/ivm (delta propagation)
// used to carry privately. Grouping keys are the packed uint64 join keys
// of internal/relation/key.go unless a kernel is generic over the key
// type (internal/engine instantiates those with query.GroupKey for wide
// group-bys).

// RowVal produces the value a row contributes to an aggregate, and
// whether the row passes the aggregate's filters. Implementations must
// be safe for concurrent calls on disjoint rows: pure reads of column
// slices qualify.
type RowVal func(row int) (float64, bool)

// KeyFunc maps a row to its packed uint64 grouping key, matching the
// signature of relation.(*Relation).KeyFunc.
type KeyFunc func(row int) uint64

// Sum computes the filtered scalar sum of val over [0, n).
func Sum(rt Runtime, n int, val RowVal) float64 {
	parts := Scan(rt, n, func() float64 { return 0 },
		func(s float64, lo, hi int) float64 {
			for row := lo; row < hi; row++ {
				if v, ok := val(row); ok {
					s += v
				}
			}
			return s
		})
	return Fold(parts, func(dst, src float64) float64 { return dst + src })
}

// SumWhere sums val over the rows of [0, n) whose key equals want — the
// delta-join scan of first-order IVM.
func SumWhere(rt Runtime, n int, key KeyFunc, want uint64, val func(row int) float64) float64 {
	parts := Scan(rt, n, func() float64 { return 0 },
		func(s float64, lo, hi int) float64 {
			for row := lo; row < hi; row++ {
				if key(row) == want {
					s += val(row)
				}
			}
			return s
		})
	return Fold(parts, func(dst, src float64) float64 { return dst + src })
}

// SelectWhere returns the rows of [0, n) whose key equals want, in row
// order — a selection kernel for callers that must visit matches with
// stateful logic of their own.
func SelectWhere(rt Runtime, n int, key KeyFunc, want uint64) []int32 {
	parts := Scan(rt, n, func() []int32 { return nil },
		func(s []int32, lo, hi int) []int32 {
			for row := lo; row < hi; row++ {
				if key(row) == want {
					s = append(s, int32(row))
				}
			}
			return s
		})
	return Fold(parts, func(dst, src []int32) []int32 { return append(dst, src...) })
}

// GroupedSum computes out[key(row)] += val(row) over [0, n) for rows
// passing the filter. It is generic over the key so engines with group
// keys wider than a packed uint64 can reuse it.
func GroupedSum[K comparable](rt Runtime, n int, key func(row int) K, val RowVal) map[K]float64 {
	parts := Scan(rt, n, func() map[K]float64 { return make(map[K]float64) },
		func(m map[K]float64, lo, hi int) map[K]float64 {
			for row := lo; row < hi; row++ {
				if v, ok := val(row); ok {
					m[key(row)] += v
				}
			}
			return m
		})
	return Fold(parts, MergeSum[K])
}

// MergeSum adds src into dst per key and returns dst (or src when dst is
// nil) — the merge step of grouped-sum partials.
func MergeSum[K comparable](dst, src map[K]float64) map[K]float64 {
	if dst == nil {
		return src
	}
	//borg:nondeterministic-ok — each key is touched once per merge; part order is fixed by Fold, not this loop
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// MultiSum evaluates a whole bank of grouped sums in ONE shared scan:
// out[key(row)][s] += slots[s](row). This is the LMFAO-shaped kernel —
// internal/core uses it to evaluate every scalar slot of a join-tree
// node in a single pass over the node's relation.
func MultiSum(rt Runtime, n int, key KeyFunc, slots []RowVal) map[uint64][]float64 {
	k := len(slots)
	parts := Scan(rt, n, func() map[uint64][]float64 { return make(map[uint64][]float64) },
		func(m map[uint64][]float64, lo, hi int) map[uint64][]float64 {
			for row := lo; row < hi; row++ {
				rk := key(row)
				acc, ok := m[rk]
				if !ok {
					acc = make([]float64, k)
					m[rk] = acc
				}
				for s, val := range slots {
					if v, pass := val(row); pass {
						acc[s] += v
					}
				}
			}
			return m
		})
	return Fold(parts, MergeMultiSum)
}

// MergeMultiSum adds src's slot vectors into dst's per key and returns
// dst (or src when dst is nil).
func MergeMultiSum(dst, src map[uint64][]float64) map[uint64][]float64 {
	if dst == nil {
		return src
	}
	//borg:nondeterministic-ok — each key is touched once per merge; part order is fixed by Fold, not this loop
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok {
			dst[k] = sv
			continue
		}
		for s, v := range sv {
			dv[s] += v
		}
	}
	return dst
}

// GroupedFold accumulates an arbitrary payload monoid grouped by key
// over an explicit row list (typically an index posting list): the
// delta-fanout kernel of the view-based IVM strategies. val may reject a
// row (a missing join partner); add combines two payloads and may
// mutate and return dst. Rows are visited in list order, so the result
// is deterministic.
func GroupedFold[V any](rows []int32, key func(row int) uint64, val func(row int) (V, bool), add func(dst, v V) V) map[uint64]V {
	out := make(map[uint64]V, len(rows))
	for _, r := range rows {
		v, ok := val(int(r))
		if !ok {
			continue
		}
		k := key(int(r))
		if cur, exists := out[k]; exists {
			out[k] = add(cur, v)
		} else {
			out[k] = v
		}
	}
	return out
}
