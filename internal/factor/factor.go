// Package factor implements factorized representations of join results —
// the f-representations of Olteanu & Závodný (TODS'15) that Section 5.1
// of the paper illustrates in Figures 7–10.
//
// An f-representation follows a variable order: the join result is a
// union of values per variable, with the subtrees below conditionally
// independent branches represented once and, when a variable's subtree
// depends only on a strict subset of its ancestors (its "key"), cached
// and shared across contexts (the `price` under `item` example of
// Figure 8). For acyclic joins and join-tree-derived orders the
// f-representation has size linear in the input, while the flat join
// result can be larger by a factor polynomial in the database size —
// the compression the §1.2 figure measures (borg-bench -fig compress).
//
// Aggregates evaluate in one bottom-up pass over the f-representation
// under any ring (Figure 9: counts; Figure 10: covariance triples),
// without ever materializing the join: EvalRing is generic over
// ring.Ring[T].
package factor

import (
	"fmt"
	"sort"

	"borg/internal/query"
	"borg/internal/relation"
)

// Node is a union node of the f-representation: the bag of values taken
// by one variable within the context of its ancestors' current values.
type Node struct {
	Var     *query.VarNode
	Entries []Entry
}

// Entry is one value of a union node with its multiplicity and one child
// node per child variable; the entry semantically denotes
// value × (child1 ∪ ...) × (child2 ∪ ...) × ... repeated Mult times.
type Entry struct {
	Cat      int32   // value when the variable is categorical
	Num      float64 // value when the variable is continuous
	Mult     int64   // bag multiplicity contributed by exhausted relations
	Children []*Node
}

// FRep is a factorized join result: one root node per variable-order
// root (multiple roots combine as a product).
type FRep struct {
	Order *query.VarOrder
	Roots []*Node

	cached map[*Node]bool // nodes reached through the cache (shared)
}

// Build computes the f-representation of the join under the given
// variable order. The input relations are not modified (sorting happens
// on copies).
func Build(j *query.Join, vo *query.VarOrder) (*FRep, error) {
	b, err := newBuilder(j, vo)
	if err != nil {
		return nil, err
	}
	f := &FRep{Order: vo, cached: make(map[*Node]bool)}
	for _, rv := range vo.Roots {
		n := b.build(rv)
		if n == nil {
			return &FRep{Order: vo}, nil // empty join
		}
		f.Roots = append(f.Roots, n)
	}
	f.cached = b.shared
	return f, nil
}

type segment struct{ lo, hi int }

type builder struct {
	j    *query.Join
	vo   *query.VarOrder
	rels []*relation.Relation // sorted copies
	// sortAttrs[i] is relation i's attribute path in variable-order
	// pre-order; segs[i] is the current restriction.
	sortAttrs [][]string
	colOf     []map[string]int
	segs      []segment
	// assign holds current categorical variable assignments (for caches).
	assign map[string]int32
	// caches[var] maps packed cache-key assignments to built nodes.
	caches  map[*query.VarNode]map[uint64]*Node
	ckVars  map[*query.VarNode][]string
	shared  map[*Node]bool
	preIdx  map[string]int // variable → pre-order position
	remains []int          // per relation: number of sort attrs not yet bound
}

func newBuilder(j *query.Join, vo *query.VarOrder) (*builder, error) {
	b := &builder{
		j:      j,
		vo:     vo,
		assign: make(map[string]int32),
		caches: make(map[*query.VarNode]map[uint64]*Node),
		ckVars: make(map[*query.VarNode][]string),
		shared: make(map[*Node]bool),
		preIdx: make(map[string]int),
	}
	pre := vo.Vars()
	for i, v := range pre {
		b.preIdx[v.Attr] = i
	}
	for _, r := range j.Relations {
		// Sorted copy along the pre-order restriction of its attrs.
		var path []string
		for _, v := range pre {
			if r.HasAttr(v.Attr) {
				path = append(path, v.Attr)
			}
		}
		if len(path) != r.NumAttrs() {
			return nil, fmt.Errorf("factor: variable order misses attributes of %s", r.Name)
		}
		cp := r.CloneEmpty()
		for i := 0; i < r.NumRows(); i++ {
			cp.AppendRowFrom(r, i)
		}
		cols := make([]int, len(path))
		colOf := make(map[string]int, len(path))
		for i, a := range path {
			cols[i] = cp.AttrIndex(a)
			colOf[a] = cols[i]
		}
		cp.SortBy(cols...)
		b.rels = append(b.rels, cp)
		b.sortAttrs = append(b.sortAttrs, path)
		b.colOf = append(b.colOf, colOf)
		b.segs = append(b.segs, segment{0, cp.NumRows()})
		b.remains = append(b.remains, len(path))
	}
	// Cache keys: the ancestors that a variable's whole subtree depends
	// on (the union of the adornments of all subtree variables, minus the
	// subtree itself). Cache only fully categorical keys of width ≤ 2.
	var ck func(v *query.VarNode) (sub, dep map[string]bool)
	ck = func(v *query.VarNode) (map[string]bool, map[string]bool) {
		sub := map[string]bool{v.Attr: true}
		dep := map[string]bool{}
		for _, k := range v.Key {
			dep[k] = true
		}
		for _, c := range v.Children {
			csub, cdep := ck(c)
			for a := range csub {
				sub[a] = true
			}
			for a := range cdep {
				dep[a] = true
			}
		}
		for a := range sub {
			delete(dep, a)
		}
		var keys []string
		for a := range dep {
			keys = append(keys, a)
		}
		sort.Strings(keys)
		cacheable := len(keys) <= 2
		for _, a := range keys {
			if t, _ := vo.Join.AttrType(a); t != relation.Category {
				cacheable = false
			}
		}
		if cacheable {
			b.ckVars[v] = keys
			b.caches[v] = make(map[uint64]*Node)
		}
		return sub, dep
	}
	for _, rv := range vo.Roots {
		ck(rv)
	}
	return b, nil
}

// build constructs the union node for variable v in the current context
// (relation segments + assignments). It returns nil when the context
// admits no value (empty join branch).
func (b *builder) build(v *query.VarNode) *Node {
	// Cache lookup.
	ckv, cacheable := b.ckVars[v]
	var ckey uint64
	if cacheable {
		switch len(ckv) {
		case 0:
			ckey = 0
		case 1:
			ckey = relation.PackKey1(b.assign[ckv[0]])
		case 2:
			ckey = relation.PackKey2(b.assign[ckv[0]], b.assign[ckv[1]])
		}
		if n, ok := b.caches[v][ckey]; ok {
			if n != nil {
				b.shared[n] = true
			}
			return n
		}
	}

	t, _ := b.vo.Join.AttrType(v.Attr)
	node := &Node{Var: v}
	if t == relation.Category {
		b.buildCat(v, node)
	} else {
		b.buildNum(v, node)
	}
	var out *Node
	if len(node.Entries) > 0 {
		out = node
	}
	if cacheable {
		b.caches[v][ckey] = out
	}
	return out
}

// buildCat intersects the segment values of all relations containing the
// categorical variable v (leapfrog style over sorted segments).
func (b *builder) buildCat(v *query.VarNode, node *Node) {
	rels := v.Rels
	lead := rels[0]
	leadCol := b.colOf[lead][v.Attr]
	seg := b.segs[lead]
	col := b.rels[lead].Col(leadCol).C
	for lo := seg.lo; lo < seg.hi; {
		val := col[lo]
		hi := upperBoundCat(col, lo, seg.hi, val)
		// Check membership and sub-segments in the other relations.
		ok := true
		saved := make([]segment, len(rels))
		narrowed := make([]bool, len(rels))
		for i, ri := range rels {
			saved[i] = b.segs[ri]
		}
		var mult int64 = 1
		for i, ri := range rels {
			c := b.rels[ri].Col(b.colOf[ri][v.Attr]).C
			s := b.segs[ri]
			slo := lowerBoundCat(c, s.lo, s.hi, val)
			shi := upperBoundCat(c, slo, s.hi, val)
			if slo == shi {
				ok = false
				break
			}
			b.segs[ri] = segment{slo, shi}
			b.remains[ri]--
			narrowed[i] = true
			if b.remains[ri] == 0 {
				mult *= int64(shi - slo)
			}
		}
		if ok {
			b.assign[v.Attr] = val
			entry := Entry{Cat: val, Mult: mult}
			dead := false
			for _, cv := range v.Children {
				cn := b.build(cv)
				if cn == nil {
					dead = true
					break
				}
				entry.Children = append(entry.Children, cn)
			}
			if !dead {
				node.Entries = append(node.Entries, entry)
			}
			delete(b.assign, v.Attr)
		}
		for i, ri := range rels {
			if narrowed[i] {
				b.remains[ri]++
			}
			b.segs[ri] = saved[i]
		}
		lo = hi
	}
}

// buildNum enumerates the distinct values of a continuous variable, which
// lives in exactly one relation.
func (b *builder) buildNum(v *query.VarNode, node *Node) {
	ri := v.Rels[0]
	colIdx := b.colOf[ri][v.Attr]
	col := b.rels[ri].Col(colIdx).F
	seg := b.segs[ri]
	for lo := seg.lo; lo < seg.hi; {
		val := col[lo]
		hi := lo
		for hi < seg.hi && col[hi] == val {
			hi++
		}
		saved := b.segs[ri]
		b.segs[ri] = segment{lo, hi}
		b.remains[ri]--
		var mult int64 = 1
		if b.remains[ri] == 0 {
			mult = int64(hi - lo)
		}
		entry := Entry{Num: val, Mult: mult}
		dead := false
		for _, cv := range v.Children {
			cn := b.build(cv)
			if cn == nil {
				dead = true
				break
			}
			entry.Children = append(entry.Children, cn)
		}
		if !dead {
			node.Entries = append(node.Entries, entry)
		}
		b.remains[ri]++
		b.segs[ri] = saved
		lo = hi
	}
}

func lowerBoundCat(c []int32, lo, hi int, v int32) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return c[lo+i] >= v })
}

func upperBoundCat(c []int32, lo, hi int, v int32) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return c[lo+i] > v })
}
