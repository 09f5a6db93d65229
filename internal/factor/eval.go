package factor

import (
	"borg/internal/query"
	"borg/internal/ring"
)

// EvalRing folds the f-representation bottom-up under a ring — the
// one-pass aggregate evaluation of Figure 9/10. lift maps one union entry
// of a variable to a ring element and must account for the entry's bag
// multiplicity (e.g. the counting lift returns e.Mult). Nodes shared via
// the cache are evaluated once (the DAG is folded, not its expansion).
func EvalRing[T any](f *FRep, r ring.Ring[T], lift func(v *query.VarNode, e *Entry) T) T {
	if len(f.Roots) == 0 {
		return r.Zero()
	}
	memo := make(map[*Node]T)
	var nodeVal func(n *Node) T
	nodeVal = func(n *Node) T {
		if f.cached[n] {
			if v, ok := memo[n]; ok {
				return v
			}
		}
		acc := r.Zero()
		for i := range n.Entries {
			e := &n.Entries[i]
			v := lift(n.Var, e)
			for _, c := range e.Children {
				v = r.Mul(v, nodeVal(c))
			}
			acc = r.Add(acc, v)
		}
		if f.cached[n] {
			memo[n] = acc
		}
		return acc
	}
	res := nodeVal(f.Roots[0])
	for _, root := range f.Roots[1:] {
		res = r.Mul(res, nodeVal(root))
	}
	return res
}

// TupleCount returns the number of tuples of the (virtual) flat join.
func (f *FRep) TupleCount() int64 {
	return EvalRing[int64](f, ring.Int{}, func(_ *query.VarNode, e *Entry) int64 { return e.Mult })
}

// ValueCount returns the number of values stored in the f-representation
// — the size measure of Olteanu & Závodný. Cached (shared) nodes count
// once; multiplicities count as repeated values, since a faithful
// representation must store them.
func (f *FRep) ValueCount() int64 {
	seen := make(map[*Node]bool)
	var walk func(n *Node) int64
	walk = func(n *Node) int64 {
		if seen[n] {
			return 0
		}
		seen[n] = true
		var total int64
		for i := range n.Entries {
			e := &n.Entries[i]
			total += e.Mult
			for _, c := range e.Children {
				total += walk(c)
			}
		}
		return total
	}
	var total int64
	for _, r := range f.Roots {
		total += walk(r)
	}
	return total
}

// FlatValueCount returns the number of values of the materialized join
// result: tuples × attributes.
func (f *FRep) FlatValueCount() int64 {
	return f.TupleCount() * int64(len(f.Order.Join.Attrs()))
}

// CompressionRatio returns flat size over factorized size — the "26x
// smaller than the input" style numbers of Section 1.2's footnote.
func (f *FRep) CompressionRatio() float64 {
	vc := f.ValueCount()
	if vc == 0 {
		return 0
	}
	return float64(f.FlatValueCount()) / float64(vc)
}

// SharedNodeCount returns how many union nodes are reached through the
// builder's cache — the d-representation sharing of Figure 8.
func (f *FRep) SharedNodeCount() int {
	return len(f.cached)
}
