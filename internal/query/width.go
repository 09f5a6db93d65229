package query

// Width measures of Section 3.2. The evaluated feature-extraction queries
// are all acyclic, where the interesting measures collapse: fractional
// hypertree width 1, factorization width 1 (over a join-tree-derived
// variable order).

// FactorizationWidth returns the factorization width of the given
// variable order: the maximum, over variables v, of the number of
// relations needed to cover {v} ∪ Key(v). For orders derived from join
// trees of acyclic queries this is 1, certifying linear-size factorized
// results; the function exists so tests can assert exactly that.
func (vo *VarOrder) FactorizationWidth() int {
	width := 0
	for _, v := range vo.Vars() {
		need := map[string]bool{v.Attr: true}
		for _, k := range v.Key {
			need[k] = true
		}
		// Greedy set cover by relations (exact enough for width 1-2
		// assertions; exhaustive fallback for small joins).
		w := coverCount(vo.Join, need)
		if w > width {
			width = w
		}
	}
	return width
}

func coverCount(j *Join, need map[string]bool) int {
	// Exhaustive minimum cover over subsets of relations (n small).
	attrs := make([]string, 0, len(need))
	for a := range need {
		attrs = append(attrs, a)
	}
	n := len(j.Relations)
	best := n + 1
	for sub := uint64(1); sub < 1<<uint(n); sub++ {
		bits := 0
		covered := 0
		for _, a := range attrs {
			ok := false
			for i := 0; i < n; i++ {
				if sub&(1<<uint(i)) != 0 && j.Relations[i].HasAttr(a) {
					ok = true
					break
				}
			}
			if ok {
				covered++
			}
		}
		for i := 0; i < n; i++ {
			if sub&(1<<uint(i)) != 0 {
				bits++
			}
		}
		if covered == len(attrs) && bits < best {
			best = bits
		}
	}
	if best > n {
		return 0
	}
	return best
}
