package ring

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"
)

// Cofactor is the categorical relational ring element of Section 4 of
// the paper (and F-IVM's general cofactor construction): the covariance
// statistics COUNT / SUM(x_i) / SUM(x_i*x_j) computed *per group* of
// categorical values. The element is a sparse sorted run: packed
// categorical keys (one slot per categorical feature; a slot may be
// unbound in partial products) in ascending order, each with the
// covariance triple of the continuous features restricted to its group.
// The order is the representation, so Each, Marginal and the ring
// operations are deterministic by construction.
//
// One-hot encodings fall out for free: the indicator column of category
// value c has SUM = the COUNT of the groups where slot=c, pairwise
// indicator products come from joint group keys, and interaction
// moments SUM(x_i * 1[g=c]) are the group-restricted sums. The trainers
// in internal/ml consume exactly those projections.
//
// A group is immutable once a second element can reach it: Snapshot and
// CofactorRing.Add hand groups on instead of copying them, and an
// element writes a group in place only while it is the sole holder
// (see owns), copying it first otherwise.
type Cofactor struct {
	// N is the number of continuous features of each group's Covar, K
	// the number of categorical slots of each group key.
	N, K int
	// keys holds the packed categorical keys (see packCatKey) in
	// ascending order; vals[i] is the statistics of group keys[i].
	keys []string
	vals []*Covar
	// shared is set once another element may hold some of vals; the
	// element then owns only the groups marked in fresh (nil = none,
	// else parallel to vals), those it allocated since. keysShared says
	// the same of the keys array, which a birth or death copies first.
	shared, keysShared bool
	fresh              []bool
	// spare holds the groups of the value a destination-passing form
	// overwrote (see reuse), for the next one to compute into.
	spare []*Covar
}

// unboundSlot marks a categorical slot not yet bound by any Lift on
// this partial product. Fully aggregated results at the join root bind
// every slot, because every categorical feature is owned by exactly one
// relation of the tree.
const unboundSlot = 0xFFFFFFFF

func slotAt(key string, i int) uint32 {
	return uint32(key[i])<<24 | uint32(key[i+1])<<16 | uint32(key[i+2])<<8 | uint32(key[i+3])
}

// packCatKey packs the K-slot key where slots idx[t] carry codes[t] and
// every other slot is unbound. Codes are relation dictionary codes
// (never negative), so uint32 round-trips them exactly. The key is
// built on the stack: the one allocation is the string itself.
func packCatKey(k int, idx []int, codes []int32) string {
	var buf [64]byte
	b := buf[:0]
	for i := 0; i < k; i++ {
		b = binary.BigEndian.AppendUint32(b, unboundSlot)
	}
	for t, i := range idx {
		binary.BigEndian.PutUint32(b[4*i:], uint32(codes[t]))
	}
	return string(b)
}

// mergeCatKeys combines two packed keys slot-wise: an unbound slot
// adopts the other side's binding, equal bindings agree, and differing
// bindings mean the two partial tuples disagree on a categorical value
// — their product is zero (ok=false). A merge that binds nothing beyond
// one side returns that side's string, allocating nothing.
func mergeCatKeys(a, b string) (key string, ok bool) {
	var buf [64]byte
	out := buf[:0]
	isA, isB := true, true
	for i := 0; i < len(a); i += 4 {
		av, bv := slotAt(a, i), slotAt(b, i)
		switch {
		case av == bv:
		case av == unboundSlot:
			av, isA = bv, false
		case bv == unboundSlot:
			isB = false
		default:
			return "", false
		}
		out = binary.BigEndian.AppendUint32(out, av)
	}
	switch {
	case isA:
		return a, true
	case isB:
		return b, true
	}
	return string(out), true
}

// NumGroups reports the number of live categorical groups.
func (e *Cofactor) NumGroups() int { return len(e.keys) }

// Group returns the statistics of the fully bound group with the given
// per-slot codes, or nil when that combination has no live tuples.
func (e *Cofactor) Group(codes []int32) *Covar {
	i, ok := slices.BinarySearchFunc(e.keys, codes, func(key string, codes []int32) int {
		for s, c := range codes {
			if d := cmp.Compare(slotAt(key, 4*s), uint32(c)); d != 0 {
				return d
			}
		}
		return 0
	})
	if !ok || len(codes) != e.K {
		return nil
	}
	return e.vals[i]
}

// Each visits every group in ascending key order with its decoded
// per-slot codes (-1 = unbound, which only occurs in partial products,
// never in root results). The codes slice is reused across calls; copy
// it to retain.
func (e *Cofactor) Each(fn func(codes []int32, g *Covar)) {
	codes := make([]int32, e.K)
	for i, k := range e.keys {
		for s := 0; s < len(k)/4; s++ {
			codes[s] = int32(slotAt(k, 4*s)) // unboundSlot wraps to -1
		}
		fn(codes, e.vals[i])
	}
}

// Marginal sums every group into one global covariance triple — the
// continuous statistics ignoring the categorical grouping. It is the
// bridge that keeps Count/Sum/Moment/Snapshot exact on cofactor
// maintainers.
func (e *Cofactor) Marginal() *Covar {
	m := new(Covar)
	e.MarginalInto(m)
	return m
}

// MarginalInto computes the marginal into dst, reusing dst's backing
// when pre-sized — the SnapshotInto reuse contract. The run folds in
// place, in key order: no sort, no lookup, no allocation. It folds one
// component at a time: each sum still adds the groups in key order, and
// the short loop bodies keep several groups' cache misses in flight —
// the groups of a long-lived run are scattered over the heap.
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

// Snapshot publishes the element's current value without copying a
// float: the returned element shares every group — and the keys array —
// with e, at the cost of one pointer-slice copy. It is immutable: from
// here on e copies a group before its first write to it (and the keys
// before a birth or death), so successive snapshots share every group
// untouched between them and none is ever written.
func (e *Cofactor) Snapshot() *Cofactor {
	e.shared, e.keysShared = true, true
	clear(e.fresh)
	return &Cofactor{N: e.N, K: e.K, keys: e.keys, vals: slices.Clone(e.vals), shared: true, keysShared: true}
}

// owns reports whether e is the sole holder of vals[i] and may write it
// in place.
func (e *Cofactor) owns(i int) bool { return !e.shared || (e.fresh != nil && e.fresh[i]) }

// AddGroup folds g into the group under a packed key (as CatScalar.G
// exposes them), taking ownership of g. Ascending keys append.
func (e *Cofactor) AddGroup(key string, g *Covar) { e.add(key, g, true, nil) }

// add folds g into the group under key, pruning it when the statistics
// cancel to exact zero so retraction shrinks the run for real. A group e
// does not own is copied before the write (copy-on-write); a missing
// one is born as g itself when e may own g, as a copy otherwise. With to
// non-nil g's feature slots are renamed on the way in (Covar.AddMapped),
// and a group is born with full support.
func (e *Cofactor) add(key string, g *Covar, own bool, to []int) {
	i, ok := slices.BinarySearch(e.keys, key)
	switch {
	case !ok:
		if to != nil {
			born := CovarRing{N: e.N}.Zero()
			born.AddMapped(g, to)
			g = born
		} else if !own {
			g = g.Clone()
		}
		e.ownKeys()
		e.keys, e.vals = slices.Insert(e.keys, i, key), slices.Insert(e.vals, i, g)
		if e.fresh != nil {
			e.fresh = slices.Insert(e.fresh, i, false)
		}
		e.markFresh(i)
		return
	case !e.owns(i):
		e.vals[i] = e.vals[i].Clone()
		e.markFresh(i)
	}
	e.vals[i].AddMapped(g, to)
	if e.vals[i].IsZero() {
		e.ownKeys()
		e.keys, e.vals = slices.Delete(e.keys, i, i+1), slices.Delete(e.vals, i, i+1)
		if e.fresh != nil {
			e.fresh = slices.Delete(e.fresh, i, i+1)
		}
	}
}

// markFresh records that e allocated vals[i] itself.
func (e *Cofactor) markFresh(i int) {
	if e.shared {
		if e.fresh == nil {
			e.fresh = make([]bool, len(e.vals))
		}
		e.fresh[i] = true
	}
}

// ownKeys unshares the keys array ahead of a birth or death.
func (e *Cofactor) ownKeys() {
	if e.keysShared {
		e.keys, e.keysShared = append(make([]string, 0, len(e.keys)+len(e.keys)/8+1), e.keys...), false
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
// the header and both one-element arrays.
func (r CofactorRing) run(n int) *Cofactor {
	if n > 1 {
		return &Cofactor{N: r.N, K: r.K, keys: make([]string, 0, n), vals: make([]*Covar, 0, n)}
	}
	s := &struct {
		e Cofactor
		k [1]string
		v [1]*Covar
	}{}
	s.e = Cofactor{N: r.N, K: r.K, keys: s.k[:0], vals: s.v[:0]}
	return &s.e
}

// push appends a group under a key above every key present.
func (e *Cofactor) push(key string, g *Covar) {
	e.keys, e.vals = append(e.keys, key), append(e.vals, g)
}

// One returns the multiplicative identity: a single all-unbound group
// whose value is the covariance-ring one.
func (r CofactorRing) One() *Cofactor { return r.LiftCat(nil, nil, nil, nil) }

// reuse empties e for a destination-passing form to compute into,
// keeping the groups it is the sole holder of as spares: all of them,
// unless a snapshot or sum was made of it, and then none.
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

// LiftCatInto is LiftCat into dst: the key string is its one allocation.
func (r CofactorRing) LiftCatInto(dst *Cofactor, idx []int, vals []float64, catIdx []int, cats []int32) *Cofactor {
	dst.reuse()
	g := r.covar().LiftInto(dst.group(), idx, vals)
	dst.push(packCatKey(r.K, catIdx, cats), g)
	return dst
}

// Add returns a+b componentwise (group union, covariance addition) by a
// sorted merge. A group present on one side only is shared with that
// operand when the operand no longer writes it in place — always the
// case for snapshots — and copied otherwise; floats are allocated only
// for keys present on both sides. The sum owns none of its groups.
func (r CofactorRing) Add(a, b *Cofactor) *Cofactor {
	out := r.run(len(a.keys) + len(b.keys))
	out.shared = true
	held := func(e *Cofactor, i int) *Covar {
		if e.owns(i) {
			return e.vals[i].Clone()
		}
		return e.vals[i]
	}
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		switch {
		case j == len(b.keys) || (i < len(a.keys) && a.keys[i] < b.keys[j]):
			out.push(a.keys[i], held(a, i))
			i++
		case i == len(a.keys) || b.keys[j] < a.keys[i]:
			out.push(b.keys[j], held(b, j))
			j++
		default:
			if s := r.covar().Add(a.vals[i], b.vals[j]); !s.IsZero() {
				out.push(a.keys[i], s)
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// AddInPlace folds src into dst group by group (see Cofactor.add): exact
// cancellation prunes, and a group some snapshot holds is copied before
// its first write, so that snapshot stays bitwise unchanged.
func (r CofactorRing) AddInPlace(dst, src *Cofactor) { dst.AddMapped(src, nil) }

// AddMapped is AddInPlace of src into e with, when to is non-nil, the
// continuous feature slots of src renamed by it (Covar.AddMapped): e is
// then a root result, whose groups all have full support.
func (e *Cofactor) AddMapped(src *Cofactor, to []int) {
	for j, k := range src.keys {
		e.add(k, src.vals[j], false, to)
	}
}

// Mul returns the group-wise product: every pair of groups whose bound
// slots agree contributes the covariance-ring product under the merged
// key; disagreeing pairs contribute zero. Distinct pairs can merge onto
// ONE output key; they accumulate in pair order (a-major, both runs
// ascending), which fixes the float-addition order.
func (r CofactorRing) Mul(a, b *Cofactor) *Cofactor {
	return r.MulInto(r.run(max(len(a.keys), len(b.keys))), a, b)
}

// MulInto is Mul into dst, which must alias neither operand.
func (r CofactorRing) MulInto(dst, a, b *Cofactor) *Cofactor {
	dst.reuse()
	for i, ka := range a.keys {
		for j, kb := range b.keys {
			if k, ok := mergeCatKeys(ka, kb); ok {
				if p := r.covar().MulInto(dst.group(), a.vals[i], b.vals[j]); !p.IsZero() {
					dst.add(k, p, true, nil)
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
	out := r.run(len(e.keys))
	for i, g := range e.vals {
		out.push(e.keys[i], g.Clone())
	}
	return out
}

// CatScalar is one group-keyed scalar aggregate — the payload the
// classical strategies (higher-order, first-order) maintain per
// covariance aggregate when the cofactor statistics are requested: each
// SUM(Πx^p) split by categorical group, exactly LMFAO's group-by
// aggregate batch with one scalar per group.
type CatScalar struct {
	K int
	G map[string]float64
}

// Total sums every group scalar in sorted-key order — the marginal of
// this aggregate over the categorical grouping, deterministic across
// runs.
func (e *CatScalar) Total() float64 {
	t := 0.0
	for _, k := range e.sortedKeys() {
		t += e.G[k]
	}
	return t
}

// sortedKeys returns the group keys in ascending order — the fixed
// iteration order that keeps scalar folds bitwise-deterministic.
func (e *CatScalar) sortedKeys() []string { return slices.Sorted(maps.Keys(e.G)) }

// CatScalarRing instantiates ring.Algebra over *CatScalar for one
// aggregate. Lifting needs the aggregate's local monomial value, which
// the strategies supply through per-aggregate lift closures; the
// interface Lift binds no slots and uses the product of vals.
type CatScalarRing struct{ K int }

// LiftVal maps a tuple's local monomial value to a single-group scalar.
func (r CatScalarRing) LiftVal(catIdx []int, cats []int32, v float64) *CatScalar {
	return &CatScalar{K: r.K, G: map[string]float64{packCatKey(r.K, catIdx, cats): v}}
}

// Zero returns the additive identity: no live groups.
func (r CatScalarRing) Zero() *CatScalar {
	return &CatScalar{K: r.K, G: make(map[string]float64)}
}

// LiftInto, MulInto and NegInto implement Algebra by the allocating
// forms, ignoring dst. LiftInto binds no slot and uses the product of
// vals; maintenance injects LiftVal closures instead.
func (r CatScalarRing) LiftInto(_ *CatScalar, idx []int, vals []float64) *CatScalar {
	v := 1.0
	for _, x := range vals {
		v *= x
	}
	return r.LiftVal(nil, nil, v)
}

func (r CatScalarRing) MulInto(_, a, b *CatScalar) *CatScalar { return r.Mul(a, b) }

func (r CatScalarRing) NegInto(_, a *CatScalar) *CatScalar { return r.Neg(a) }

// Mul returns the group-wise product under merged keys. As with
// CofactorRing.Mul, colliding pairs accumulate in sorted-key order so
// the sums are bitwise-deterministic.
func (r CatScalarRing) Mul(a, b *CatScalar) *CatScalar {
	out := r.Zero()
	bKeys := b.sortedKeys()
	for _, ka := range a.sortedKeys() {
		va := a.G[ka]
		for _, kb := range bKeys {
			if k, ok := mergeCatKeys(ka, kb); ok {
				out.G[k] += va * b.G[kb]
			}
		}
	}
	return out
}

// Neg returns the additive inverse.
func (r CatScalarRing) Neg(a *CatScalar) *CatScalar {
	out := &CatScalar{K: r.K, G: make(map[string]float64, len(a.G))}
	//borg:nondeterministic-ok — per-key map fill, no accumulation; order-insensitive
	for k, v := range a.G {
		out.G[k] = -v
	}
	return out
}

// AddInPlace folds src into dst, pruning exact-zero groups.
func (r CatScalarRing) AddInPlace(dst, src *CatScalar) {
	//borg:nondeterministic-ok — each src key folds into its own dst slot exactly once; order-insensitive
	for k, v := range src.G {
		s := dst.G[k] + v
		if s == 0 {
			delete(dst.G, k)
		} else {
			dst.G[k] = s
		}
	}
}

// IsZero reports whether every group scalar is zero.
func (r CatScalarRing) IsZero(e *CatScalar) bool {
	//borg:nondeterministic-ok — existence check over independent groups; order-insensitive
	for _, v := range e.G {
		if v != 0 {
			return false
		}
	}
	return true
}

// Clone deep-copies the element.
func (r CatScalarRing) Clone(e *CatScalar) *CatScalar { return &CatScalar{K: e.K, G: maps.Clone(e.G)} }
