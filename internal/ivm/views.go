package ivm

import (
	"borg/internal/relation"
	"borg/internal/ring"
)

// views is one node's view: its payload per join key, as an element per
// key (mapViews) or a covar slab.
type views[E any] interface {
	// get returns the payload at key, valid until the next get or merge
	// on this view; false when nothing below the node joins on key.
	get(key uint64) (E, bool)
	// merge adds delta, not retained, into the payload at key; a key that
	// drains to the exact identity, which multiplies a delta to nothing
	// as a missing key does, is removed, so memory tracks live data.
	merge(key uint64, delta E)
}

// mapViews is a view as a map of ring elements.
type mapViews[E any] struct {
	alg ring.Algebra[E]
	m   map[uint64]E
}

func (v *mapViews[E]) get(key uint64) (E, bool) {
	e, ok := v.m[key]
	return e, ok
}

func (v *mapViews[E]) merge(key uint64, delta E) {
	if cur, present := v.m[key]; present {
		v.alg.AddInPlace(cur, delta)
		if v.alg.IsZero(cur) { // integer-exact data drains bitwise
			delete(v.m, key)
		}
	} else if !v.alg.IsZero(delta) {
		v.m[key] = v.alg.Clone(delta)
	}
}

// covarSlab is a covar view stored flat: a record [count | Sum | Q] per
// key at stride 1+k+k², over the node's subtree block [lo, lo+k), which
// every delta at the node has (base.slotOf numbers slots in preorder),
// found through an open-addressed key table (relation.KeyTable) from join
// key to record. Drained records are reused, so a birth copies a delta
// into place and allocates nothing once the array and the table have
// grown to the view's peak.
type covarSlab struct {
	lo, k int
	recs  []float64
	slot  relation.KeyTable
	free  []int32
	hdr   ring.Covar // get's window on a record: a product reads a view once
}

//borg:noalloc
func (v *covarSlab) rec(s int32) []float64 {
	st := 1 + v.k + v.k*v.k
	return v.recs[int(s)*st:][:st:st]
}

// at points the window at record s.
//
//borg:noalloc
func (v *covarSlab) at(s int32) *ring.Covar {
	rec := v.rec(s)
	v.hdr.Count, v.hdr.Sum, v.hdr.Q = rec[0], rec[1:][:v.k:v.k], rec[1+v.k:]
	return &v.hdr
}

//borg:noalloc
func (v *covarSlab) get(key uint64) (*ring.Covar, bool) {
	s, ok := v.slot.Get(key)
	if !ok {
		return nil, false
	}
	return v.at(s), true
}

// merge is mapViews.merge through the window, so the same bits.
//
//borg:noalloc
func (v *covarSlab) merge(key uint64, d *ring.Covar) {
	if len(d.Sum) != v.k {
		offBlock()
	}
	if s, present := v.slot.Get(key); present {
		e := v.at(s)
		e.AddInPlace(d)
		if v.rec(s)[0] = e.Count; e.IsZero() {
			v.slot.Delete(key)
			v.free = append(v.free, s)
		}
	} else if !d.IsZero() {
		v.birth(key, d)
	}
}

// offBlock reports a delta off its view's block (slotOf rules it out).
//
//go:noinline
func offBlock() { panic("ivm: a covar delta is not on its view's block") }

// birth stores a copy of d as key's record, in a drained one if any.
func (v *covarSlab) birth(key uint64, d *ring.Covar) {
	st := 1 + v.k + v.k*v.k
	s := int32(len(v.recs) / st)
	if n := len(v.free); n > 0 {
		s, v.free = v.free[n-1], v.free[:n-1]
	} else {
		v.recs = append(v.recs, make([]float64, st)...)
	}
	d.CopyInto(v.at(s))
	v.rec(s)[0] = d.Count
	v.slot.Set(key, s)
}

// covarRoot stores vt's views in slabs, each over its node's subtree
// block, and returns the covar payload's root hook (viewTree.applyRoot):
// a root tuple's lift and child views, multiplied and added to the
// result by one fused product (ring.CovarRing.AddProduct). to maps slots
// to feature indexes (nil: the identity).
func covarRoot(r ring.CovarRing, vt *viewTree[*ring.Covar], to []int) func(*node, []relation.Value, bool) {
	if to == nil {
		to = make([]int, r.N)
		for i := range to {
			to[i] = i
		}
	}
	nodes := vt.nodes
	k := make([]int, len(nodes)) // subtree widths; preorder puts children after parents
	for i := len(nodes) - 1; i >= 0; i-- {
		if k[i] += len(nodes[i].slots); nodes[i].parent != nil {
			k[nodes[i].parent.id] += k[i]
		}
	}
	lo := 0
	for i, n := range nodes {
		vt.view[i] = &covarSlab{lo: lo, k: k[i], hdr: ring.Covar{N: r.N, Lo: lo}}
		lo += len(n.slots)
	}
	return func(n *node, vals []relation.Value, neg bool) {
		if s := vt.scratch; vt.factors(s, n, vals, nil, nil) {
			r.AddProduct(vt.result, to, neg, s.fac)
		}
	}
}
