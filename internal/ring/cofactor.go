package ring

import (
	"slices"
	"sort"
)

// Cofactor is the categorical relational ring element of Section 4 of
// the paper (and F-IVM's general cofactor construction): the covariance
// statistics COUNT / SUM(x_i) / SUM(x_i*x_j) computed *per group* of
// categorical values. The element is a sparse sorted run: packed
// categorical keys (one slot per categorical feature; a slot may be
// unbound in partial products) in ascending order, each with the
// covariance triple of the continuous features restricted to its group.
// The order is the representation, so Each, MarginalInto and the ring
// operations are deterministic by construction.
//
// A key is K 32-bit slots (codes, or unboundSlot) packed two per uint64,
// slot 2w in the high half of word w; W = ⌈K/2⌉ words per group sit in
// one flat, pointer-free array. Unsigned word-by-word order is the byte
// order of the big-endian slots laid end to end — the order of the
// string keys the words replaced — so the run's order, Mul's pair order
// and every float are as they were.
//
// One-hot encodings fall out for free: the indicator column of category
// value c has SUM = the COUNT of the groups where slot=c, pairwise
// indicator products come from joint group keys, and interaction
// moments SUM(x_i * 1[g=c]) are the group-restricted sums. The trainers
// in internal/ml consume exactly those projections.
//
// A group is immutable once a second element can reach it.
// CofactorRing.Add and a CofactorRoot's materialization hand groups on
// instead of copying them, and mark what they build shared: a shared
// element copies a group before writing it. The F-IVM root result is a
// CofactorRoot, whose published elements nobody writes.
type Cofactor struct {
	// N is the number of continuous features of each group's Covar, K
	// the number of categorical slots of each group key.
	N, K int
	// keys holds the group keys (see packCatKey), keyWords(K) words
	// each, in ascending order; vals[i] is the statistics of key(i).
	keys []uint64
	vals []*Covar
	// shared is set once another element may hold some of vals: e then
	// writes none of them in place.
	shared bool
	// spare holds the groups of the value a destination-passing form
	// overwrote (see reuse), for the next one to compute into.
	spare []*Covar
}

// unboundSlot marks a categorical slot not yet bound by any Lift on
// this partial product. Fully aggregated results at the join root bind
// every slot, because every categorical feature is owned by exactly one
// relation of the tree.
const unboundSlot = 0xFFFFFFFF

// keyWords is the number of words of a k-slot key.
func keyWords(k int) int { return (k + 1) / 2 }

// key returns the key of group i.
func (e *Cofactor) key(i int) []uint64 { return e.keys[i*keyWords(e.K) : (i+1)*keyWords(e.K)] }

func slotAt(key []uint64, s int) uint32 { return uint32(key[s/2] >> (32 - 32*(s&1))) }

// packCatKey writes into key, and returns, the key where slots idx[t]
// carry codes[t] and every other slot is unbound. Codes are relation
// dictionary codes (never negative), so uint32 round-trips them exactly.
func packCatKey(key []uint64, idx []int, codes []int32) []uint64 {
	for w := range key {
		key[w] = ^uint64(0)
	}
	for t, s := range idx {
		setSlot(key, s, codes[t])
	}
	return key
}

// setSlot binds slot s of key to code c, an even slot in the high half.
func setSlot(key []uint64, s int, c int32) {
	sh := 32 - 32*(s&1)
	key[s/2] = key[s/2]&^(unboundSlot<<sh) | uint64(uint32(c))<<sh
}

// mergeCatKeys combines two keys slot-wise into dst: an unbound slot
// (all ones) adopts the other side's binding, so the merge is a bitwise
// and, and equal bindings agree. Differing bindings mean the two partial
// tuples disagree on a categorical value — their product is zero (false).
func mergeCatKeys(dst, a, b []uint64) bool {
	for w, x := range a {
		y := b[w]
		for sh := 0; x != y && sh < 64; sh += 32 {
			if xs, ys := uint32(x>>sh), uint32(y>>sh); xs != ys && xs != unboundSlot && ys != unboundSlot {
				return false
			}
		}
		dst[w] = x & y
	}
	return true
}

// search finds key in the run: its index, or where it would be inserted.
func (e *Cofactor) search(key []uint64) (int, bool) {
	i := sort.Search(len(e.vals), func(i int) bool { return slices.Compare(e.key(i), key) >= 0 })
	return i, i < len(e.vals) && slices.Equal(e.key(i), key)
}

// NumGroups reports the number of live categorical groups.
func (e *Cofactor) NumGroups() int { return len(e.vals) }

// Group returns the statistics of the fully bound group with the given
// per-slot codes, or nil when that combination has no live tuples.
func (e *Cofactor) Group(codes []int32) *Covar {
	if len(codes) != e.K {
		return nil
	}
	var buf [4]uint64
	key := packCatKey(slices.Grow(buf[:0], keyWords(e.K))[:keyWords(e.K)], nil, nil)
	for s, c := range codes {
		setSlot(key, s, c)
	}
	if i, ok := e.search(key); ok {
		return e.vals[i]
	}
	return nil
}

// Each visits every group in ascending key order with its decoded
// per-slot codes (-1 = unbound, which only occurs in partial products,
// never in root results). The codes slice is reused across calls; copy
// it to retain.
func (e *Cofactor) Each(fn func(codes []int32, g *Covar)) {
	codes := make([]int32, e.K)
	for i, g := range e.vals {
		for s := range codes {
			codes[s] = int32(slotAt(e.key(i), s)) // unboundSlot wraps to -1
		}
		fn(codes, g)
	}
}

// MarginalInto sums every group into dst, one global covariance triple —
// the continuous statistics ignoring the categorical grouping, the
// bridge that keeps Count/Sum/Moment/Snapshot exact on cofactor
// maintainers. It reuses dst's backing when pre-sized — the
// SnapshotInto reuse contract. The run folds in
// place, in key order: no sort, no lookup, no allocation. It folds one
// component at a time: each sum still adds the groups in key order, and
// the short loop bodies keep several groups' cache misses in flight —
// a merged run's groups lie in several slabs.
func (e *Cofactor) MarginalInto(dst *Covar) {
	dst.N = e.N
	dst.block(0, e.N)
	sum := dst.Sum
	clear(sum)
	clear(dst.Q)
	dst.Count = e.Count()
	for _, g := range e.vals {
		for i, v := range g.Sum {
			sum[g.Lo+i] += v
		}
	}
	for _, g := range e.vals {
		dst.addQ(g)
	}
}

// Count sums the group counts in key order: the marginal's Count, bit
// for bit, without folding the rest of the triple.
func (e *Cofactor) Count() float64 {
	count := 0.0
	for _, g := range e.vals {
		count += g.Count
	}
	return count
}

// ApproxEqual reports whether the two elements have the same group keys
// and componentwise equal statistics within tol.
func (e *Cofactor) ApproxEqual(o *Cofactor, tol float64) bool {
	return e.N == o.N && e.K == o.K && slices.Equal(e.keys, o.keys) &&
		slices.EqualFunc(e.vals, o.vals, func(g, og *Covar) bool { return g.ApproxEqual(og, tol) })
}

// add folds g into the group under key, pruning it when the statistics
// cancel to exact zero so retraction shrinks the run for real. A group
// of a shared element is copied before the write (copy-on-write); a
// missing one is born as g itself when e may own g, as a copy otherwise.
// With to non-nil g's feature slots are renamed on the way in
// (Covar.AddMapped), and a group is born with full support.
func (e *Cofactor) add(key []uint64, g *Covar, own bool, to []int) {
	i, ok := e.search(key)
	w := len(key)
	switch {
	case !ok:
		if to != nil {
			born := CovarRing{N: e.N}.Zero()
			born.AddMapped(g, to)
			g = born
		} else if !own {
			g = g.Clone()
		}
		e.keys, e.vals = slices.Insert(e.keys, i*w, key...), slices.Insert(e.vals, i, g)
		return
	case e.shared:
		e.vals[i] = e.vals[i].Clone()
	}
	e.vals[i].AddMapped(g, to)
	if e.vals[i].IsZero() {
		e.keys, e.vals = slices.Delete(e.keys, i*w, i*w+w), slices.Delete(e.vals, i, i+1)
	}
}

// CofactorRing instantiates ring.Algebra over *Cofactor: componentwise
// addition and negation, group-wise multiplication (keys of the two
// sides merge when their bound slots agree; the group values multiply
// under the covariance ring), and lifting over a relation's owned
// categorical AND continuous variables at once.
type CofactorRing struct {
	// N is the number of continuous features, K the number of
	// categorical slots.
	N, K int
}

func (r CofactorRing) covar() CovarRing { return CovarRing{N: r.N} }

// Zero returns the additive identity: no live groups.
func (r CofactorRing) Zero() *Cofactor { return &Cofactor{N: r.N, K: r.K} }

// run returns an empty element with room for n groups. Single-group
// elements — every tuple lift and most deltas — take one allocation for
// the header and both one-element arrays (keys of up to four slots).
func (r CofactorRing) run(n int) *Cofactor {
	if n > 1 {
		return &Cofactor{N: r.N, K: r.K, keys: make([]uint64, 0, n*keyWords(r.K)), vals: make([]*Covar, 0, n)}
	}
	s := &struct {
		e Cofactor
		k [2]uint64
		v [1]*Covar
	}{}
	s.e = Cofactor{N: r.N, K: r.K, keys: s.k[:0], vals: s.v[:0]}
	return &s.e
}

// push appends g above every group present and returns its key to fill.
func (e *Cofactor) push(g *Covar) []uint64 {
	n := len(e.keys)
	e.keys, e.vals = slices.Grow(e.keys, keyWords(e.K))[:n+keyWords(e.K)], append(e.vals, g)
	return e.keys[n:]
}

// One returns the multiplicative identity: a single all-unbound group
// whose value is the covariance-ring one.
func (r CofactorRing) One() *Cofactor { return r.LiftCat(nil, nil, nil, nil) }

// reuse empties e for a destination-passing form to compute into,
// keeping the groups it is the sole holder of as spares: all of them,
// unless it is shared, and then none.
func (e *Cofactor) reuse() {
	if e.shared {
		*e = Cofactor{N: e.N, K: e.K}
	}
	e.spare = append(e.spare, e.vals...)
	e.keys, e.vals = e.keys[:0], e.vals[:0]
}

// group returns a group for a destination-passing form to overwrite: a
// spare of e's when it has one.
func (e *Cofactor) group() (g *Covar) {
	if n := len(e.spare); n > 0 {
		g, e.spare = e.spare[n-1], e.spare[:n-1]
		return g
	}
	return CovarRing{N: e.N}.Zero()
}

// LiftInto implements Algebra; it binds no categorical slot. Maintenance
// uses LiftCatInto.
func (r CofactorRing) LiftInto(dst *Cofactor, idx []int, vals []float64) *Cofactor {
	return r.LiftCatInto(dst, idx, vals, nil, nil)
}

// LiftCat maps one tuple to its ring element: a single group binding
// the owned categorical slots catIdx to the tuple's codes, whose value
// is the covariance-ring lift of the owned continuous features.
func (r CofactorRing) LiftCat(idx []int, vals []float64, catIdx []int, cats []int32) *Cofactor {
	return r.LiftCatInto(r.run(1), idx, vals, catIdx, cats)
}

// LiftCatInto is LiftCat into dst.
func (r CofactorRing) LiftCatInto(dst *Cofactor, idx []int, vals []float64, catIdx []int, cats []int32) *Cofactor {
	dst.reuse()
	packCatKey(dst.push(r.covar().LiftInto(dst.group(), idx, vals)), catIdx, cats)
	return dst
}

// Add returns a+b componentwise (group union, covariance addition) by a
// sorted merge. A group present on one side only is shared with that
// operand when the operand no longer writes it in place — always the
// case for published elements — and copied otherwise; floats are
// allocated only for keys present on both sides. The sum owns none of
// its groups.
func (r CofactorRing) Add(a, b *Cofactor) *Cofactor {
	out := r.run(len(a.vals) + len(b.vals))
	out.shared = true
	held := func(e *Cofactor, i int) *Covar {
		if !e.shared {
			return e.vals[i].Clone()
		}
		return e.vals[i]
	}
	i, j := 0, 0
	for i < len(a.vals) || j < len(b.vals) {
		switch {
		case j == len(b.vals) || (i < len(a.vals) && slices.Compare(a.key(i), b.key(j)) < 0):
			copy(out.push(held(a, i)), a.key(i))
			i++
		case i == len(a.vals) || slices.Compare(b.key(j), a.key(i)) < 0:
			copy(out.push(held(b, j)), b.key(j))
			j++
		default:
			if s := r.covar().Add(a.vals[i], b.vals[j]); !s.IsZero() {
				copy(out.push(s), a.key(i))
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// AddInPlace folds src into dst group by group (see Cofactor.add): exact
// cancellation prunes, and a shared dst copies a group before writing
// it, so the elements sharing it stay bitwise unchanged.
func (r CofactorRing) AddInPlace(dst, src *Cofactor) { dst.AddMapped(src, nil) }

// AddMapped is AddInPlace of src into e with, when to is non-nil, the
// continuous feature slots of src renamed by it (Covar.AddMapped): e is
// then a root result, whose groups all have full support.
func (e *Cofactor) AddMapped(src *Cofactor, to []int) {
	for j, g := range src.vals {
		e.add(src.key(j), g, false, to)
	}
}

// Mul returns the group-wise product: every pair of groups whose bound
// slots agree contributes the covariance-ring product under the merged
// key; disagreeing pairs contribute zero. Distinct pairs can merge onto
// ONE output key; they accumulate in pair order (a-major, both runs
// ascending), which fixes the float-addition order.
func (r CofactorRing) Mul(a, b *Cofactor) *Cofactor {
	return r.MulInto(r.run(max(len(a.vals), len(b.vals))), a, b)
}

// MulInto is Mul into dst, which must alias neither operand.
func (r CofactorRing) MulInto(dst, a, b *Cofactor) *Cofactor {
	dst.reuse()
	var buf [4]uint64
	key := slices.Grow(buf[:0], keyWords(r.K))[:keyWords(r.K)]
	for i, ga := range a.vals {
		for j, gb := range b.vals {
			if mergeCatKeys(key, a.key(i), b.key(j)) {
				if p := r.covar().MulInto(dst.group(), ga, gb); !p.IsZero() {
					dst.add(key, p, true, nil)
				}
			}
		}
	}
	return dst
}

// Neg returns the additive inverse: every group negated.
func (r CofactorRing) Neg(a *Cofactor) *Cofactor { return r.NegInto(nil, a) }

// NegInto negates a in place when dst is a itself and a is the sole
// holder of its groups, and a copy of a otherwise.
func (r CofactorRing) NegInto(dst, a *Cofactor) *Cofactor {
	if dst != a || a.shared {
		a = r.Clone(a)
	}
	for _, g := range a.vals {
		r.covar().NegInto(g, g)
	}
	return a
}

// IsZero reports whether the element is the additive identity. Groups
// are pruned eagerly on cancellation, so an empty run is the canonical
// zero; any surviving group with nonzero statistics makes the element
// nonzero.
func (r CofactorRing) IsZero(e *Cofactor) bool {
	return !slices.ContainsFunc(e.vals, func(g *Covar) bool { return !g.IsZero() })
}

// Clone deep-copies the element; the copy owns every group.
func (r CofactorRing) Clone(e *Cofactor) *Cofactor {
	out := r.run(len(e.vals))
	out.keys = append(out.keys, e.keys...)
	for _, g := range e.vals {
		out.vals = append(out.vals, g.Clone())
	}
	return out
}
