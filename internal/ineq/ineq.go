// Package ineq implements aggregates over joins with ADDITIVE INEQUALITY
// conditions (Section 2.3; Abo Khamis et al., PODS 2019):
//
//	SUM(f(r) * g(s))  OVER  R ⋈ S  WHERE  a(r) + b(s) > c
//
// Such conditions arise in the (sub)gradients of non-polynomial loss
// functions: linear SVMs (hinge loss), robust regression (Huber,
// epsilon-insensitive), and k-means assignment steps. Classical engines
// evaluate them by materializing R ⋈ S and testing the predicate per
// joined tuple — Θ(|R ⋈ S|) per evaluation. The factorized algorithm
// here sorts, per join key, the S side by b(s) with suffix sums of g(s),
// then answers each R row with one binary search — Θ((|R|+|S|)·log|S|)
// regardless of how large the join is. The gap between the two is the
// "polynomially less time" the paper refers to, and is measured by the
// §2.3 figure (borg-bench -fig ineq).
package ineq

import (
	"fmt"
	"sort"

	"borg/internal/relation"
)

// RowFunc evaluates a per-row scalar, e.g. a feature value, a constant,
// or a weighted sum of features.
type RowFunc func(rel *relation.Relation, row int) float64

// Col returns a RowFunc reading the named continuous column.
func Col(rel *relation.Relation, name string) (RowFunc, error) {
	c := rel.AttrIndex(name)
	if c < 0 {
		return nil, fmt.Errorf("ineq: relation %s has no attribute %s", rel.Name, name)
	}
	if rel.Attrs()[c].Type != relation.Double {
		return nil, fmt.Errorf("ineq: attribute %s is not continuous", name)
	}
	return func(r *relation.Relation, row int) float64 { return r.Float(c, row) }, nil
}

// Pair is a prepared two-relation join R ⋈ S on one shared categorical
// key attribute.
type Pair struct {
	R, S   *relation.Relation
	rKey   []int32 // key codes per R row
	sIndex map[int32][]int32
}

// NewPair prepares the join of r and s on the named key attribute.
func NewPair(r, s *relation.Relation, key string) (*Pair, error) {
	rc, sc := r.AttrIndex(key), s.AttrIndex(key)
	if rc < 0 || sc < 0 {
		return nil, fmt.Errorf("ineq: key %s missing from %s or %s", key, r.Name, s.Name)
	}
	if r.Attrs()[rc].Type != relation.Category || s.Attrs()[sc].Type != relation.Category {
		return nil, fmt.Errorf("ineq: key %s must be categorical", key)
	}
	p := &Pair{R: r, S: s, sIndex: make(map[int32][]int32)}
	p.rKey = make([]int32, r.NumRows())
	for i := 0; i < r.NumRows(); i++ {
		p.rKey[i] = r.Cat(rc, i)
	}
	for i := 0; i < s.NumRows(); i++ {
		k := s.Cat(sc, i)
		p.sIndex[k] = append(p.sIndex[k], int32(i))
	}
	return p, nil
}

// Result holds the batched sums of one inequality-aggregate evaluation:
// Count is Σ 1, FR[i] is Σ fR[i](r) (g ≡ 1), GS[j] is Σ gS[j](s)
// (f ≡ 1), all over joined pairs satisfying a(r)+b(s) > c.
type Result struct {
	Count float64
	FR    []float64
	GS    []float64
}

// Eval computes the batch with the factorized sort + suffix-sum
// algorithm: per join key the S rows are sorted by b(s) once and reused
// by every R probe and every aggregate of the batch.
func (p *Pair) Eval(a, b RowFunc, fR, gS []RowFunc, c float64) Result {
	res := Result{FR: make([]float64, len(fR)), GS: make([]float64, len(gS))}

	// Per key: sorted b values + suffix sums of (1, gS...).
	type keyData struct {
		b      []float64
		suffix [][]float64 // [1+len(gS)] arrays of length len(b)+1
	}
	prep := make(map[int32]*keyData, len(p.sIndex))
	for k, rows := range p.sIndex {
		kd := &keyData{b: make([]float64, len(rows))}
		order := make([]int, len(rows))
		for i, r := range rows {
			kd.b[i] = b(p.S, int(r))
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return kd.b[order[x]] < kd.b[order[y]] })
		sortedB := make([]float64, len(rows))
		kd.suffix = make([][]float64, 1+len(gS))
		for t := range kd.suffix {
			kd.suffix[t] = make([]float64, len(rows)+1)
		}
		for i, oi := range order {
			sortedB[i] = kd.b[oi]
		}
		for i := len(rows) - 1; i >= 0; i-- {
			srow := int(rows[order[i]])
			kd.suffix[0][i] = kd.suffix[0][i+1] + 1
			for t, g := range gS {
				kd.suffix[1+t][i] = kd.suffix[1+t][i+1] + g(p.S, srow)
			}
		}
		kd.b = sortedB
		prep[k] = kd
	}

	for ri := 0; ri < p.R.NumRows(); ri++ {
		kd, ok := prep[p.rKey[ri]]
		if !ok {
			continue
		}
		av := a(p.R, ri)
		// b(s) > c - a(r): first sorted index strictly above the bound.
		bound := c - av
		lo := sort.Search(len(kd.b), func(i int) bool { return kd.b[i] > bound })
		cnt := kd.suffix[0][lo]
		if cnt == 0 {
			continue
		}
		res.Count += cnt
		for t, f := range fR {
			res.FR[t] += f(p.R, ri) * cnt
		}
		for t := range gS {
			res.GS[t] += kd.suffix[1+t][lo]
		}
	}
	return res
}

// EvalScan computes the same batch by enumerating the join and testing
// the inequality per joined pair — the classical evaluation the paper's
// Section 2.3 says existing systems use. It exists as the experimental
// baseline and as the test oracle.
func (p *Pair) EvalScan(a, b RowFunc, fR, gS []RowFunc, c float64) Result {
	res := Result{FR: make([]float64, len(fR)), GS: make([]float64, len(gS))}
	for ri := 0; ri < p.R.NumRows(); ri++ {
		rows := p.sIndex[p.rKey[ri]]
		if rows == nil {
			continue
		}
		av := a(p.R, ri)
		for _, sr := range rows {
			if av+b(p.S, int(sr)) > c {
				res.Count++
				for t, f := range fR {
					res.FR[t] += f(p.R, ri)
				}
				for t, g := range gS {
					res.GS[t] += g(p.S, int(sr))
				}
			}
		}
	}
	return res
}
