package ring

import "slices"

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
// The groups' statistics are one pointer-free float slab too: a record
// [count | sums | Q] per group at the fixed stride 1+w+w² of the
// element's block of feature slots [lo, lo+w), which every group stores
// (the maintenance path gives every group of an element the same block:
// its join-tree node's). Readers take a group by its index in key order
// (At, Each). An element built in key order — a root's epoch, a sum, a
// clone — holds its records in key order; one built by in-place adds
// keeps an index from key order to record, so a birth inserts a key and
// an index entry and moves no other group's floats, and a pruned
// group's record is reused by the next birth.
//
// One-hot encodings fall out for free: the indicator column of category
// value c has SUM = the COUNT of the groups where slot=c, pairwise
// indicator products come from joint group keys, and interaction
// moments SUM(x_i * 1[g=c]) are the group-restricted sums. The trainers
// in internal/ml consume exactly those projections.
type Cofactor struct {
	// N is the number of continuous features of each group's Covar, K
	// the number of categorical slots of each group key.
	N, K int
	// lo and w are the block every record stores, n the group count.
	lo, w, n int
	// keys holds the group keys (see packCatKey), keyWords(K) words
	// each, in ascending order; at[i] is the record of key i, or i
	// itself when at is nil; data holds the records; free lists the
	// records of pruned groups.
	keys []uint64
	at   []int32
	data []float64
	free []int32
}

// unboundSlot marks a categorical slot not yet bound by any Lift on
// this partial product. Fully aggregated results at the join root bind
// every slot, because every categorical feature is owned by exactly one
// relation of the tree.
const unboundSlot = 0xFFFFFFFF

// keyWords is the number of words of a k-slot key.
func keyWords(k int) int { return (k + 1) / 2 }

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

// key returns the key of group i.
func (e *Cofactor) key(i int) []uint64 { w := keyWords(e.K); return e.keys[i*w : (i+1)*w] }

// stride is the length of one record.
func (e *Cofactor) stride() int { return 1 + e.w + e.w*e.w }

// rec returns record r.
//
//borg:noalloc
func (e *Cofactor) rec(r int) []float64 {
	st := e.stride()
	return e.data[r*st:][:st:st]
}

// recOf returns the record of group i.
func (e *Cofactor) recOf(i int) int {
	if e.at == nil {
		return i
	}
	return int(e.at[i])
}

// window points g at rec, a record over e's block, and returns it. Its
// Count is a copy of rec[0]: a write through g stores it back.
//
//borg:noalloc
func (e *Cofactor) window(g *Covar, rec []float64) *Covar { return recWindow(g, e.N, e.lo, e.w, rec) }

// recWindow points g at rec, a record [count | sums | Q] over the block
// [lo, lo+w) of n features and exactly as long, and returns it. It sets
// g's fields one by one: storing a composite literal through g made a
// root's Add and fold about a tenth slower (2-vCPU Xeon), and every
// group read goes through here.
//
//borg:noalloc
func recWindow(g *Covar, n, lo, w int, rec []float64) *Covar {
	g.N, g.Lo, g.Count, g.Sum, g.Q = n, lo, rec[0], rec[1:1+w:1+w], rec[1+w:]
	return g
}

// At points g at group i, in key order, and returns it: a window on the
// group's record, valid until e is next written, whose Count is a copy.
// It spells out recOf and rec rather than calling them so that it stays
// within the inliner's budget: the trainers and MulInto's pair loop call
// it once per group.
//
//borg:noalloc
func (e *Cofactor) At(i int, g *Covar) *Covar {
	if e.at != nil {
		i = int(e.at[i])
	}
	w := e.w
	st := 1 + w + w*w
	return recWindow(g, e.N, e.lo, w, e.data[i*st:][:st:st])
}

// Codes writes group i's per-slot codes, in key order, into codes
// (-1 = unbound), which has room for K.
//
//borg:noalloc
func (e *Cofactor) Codes(i int, codes []int32) {
	key := e.key(i)
	for s := range codes {
		codes[s] = int32(slotAt(key, s)) // unboundSlot wraps to -1
	}
}

// compareKeys orders two keys of one width as slices.Compare does, in
// a loop small enough to inline.
func compareKeys(a, b []uint64) int {
	for i, x := range a {
		if y := b[i]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// search finds key in the run: its index, or where it would be inserted.
func (e *Cofactor) search(key []uint64) (int, bool) {
	w, lo, hi := len(key), 0, e.n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); compareKeys(e.keys[m*w:][:w], key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < e.n && compareKeys(e.keys[lo*w:][:w], key) == 0
}

// NumGroups reports the number of live categorical groups.
func (e *Cofactor) NumGroups() int { return e.n }

// Group returns the statistics of the fully bound group with the given
// per-slot codes, as a window of its own, or nil when that combination
// has no live tuples.
//
//borg:vet-ok deadexport — ring and shard tests read single groups with it
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
		return e.At(i, new(Covar))
	}
	return nil
}

// Each visits every group in ascending key order with its decoded
// per-slot codes (-1 = unbound, which only occurs in partial products,
// never in root results) and a window on its statistics. Both are
// reused across calls and valid during the call only; copy to retain.
func (e *Cofactor) Each(fn func(codes []int32, g *Covar)) {
	codes, g := make([]int32, e.K), new(Covar)
	for i := 0; i < e.n; i++ {
		e.Codes(i, codes)
		fn(codes, e.At(i, g))
	}
}

// MarginalInto sums every group into dst, one global covariance triple —
// the continuous statistics ignoring the categorical grouping, the
// bridge that keeps Count/Sum/Moment/Snapshot exact on cofactor
// maintainers. It reuses dst's backing when pre-sized — the
// SnapshotInto reuse contract. The run folds in place, in key order —
// every statistic adds the groups in key order — in one pass over the
// records: no sort, no lookup, no allocation.
func (e *Cofactor) MarginalInto(dst *Covar) {
	dst.N = e.N
	dst.block(0, e.N)
	clear(dst.Sum)
	clear(dst.Q)
	dst.Count = e.Count()
	sum := dst.Sum[e.lo:][:e.w]
	var g Covar
	for i := 0; i < e.n; i++ {
		for j, v := range e.At(i, &g).Sum {
			sum[j] += v
		}
		dst.addQ(&g)
	}
}

// Count sums the group counts in key order: the marginal's Count, bit
// for bit, without folding the rest of the triple.
func (e *Cofactor) Count() float64 {
	count := 0.0
	for i := 0; i < e.n; i++ {
		count += e.rec(e.recOf(i))[0]
	}
	return count
}

// ApproxEqual reports whether the two elements have the same group keys
// and componentwise equal statistics within tol.
//
//borg:vet-ok deadexport — ring, ivm and shard tests compare elements with it
func (e *Cofactor) ApproxEqual(o *Cofactor, tol float64) bool {
	if e.N != o.N || e.K != o.K || e.n != o.n || !slices.Equal(e.keys, o.keys) {
		return false
	}
	var g, og Covar
	for i := 0; i < e.n; i++ {
		if !e.At(i, &g).ApproxEqual(o.At(i, &og), tol) {
			return false
		}
	}
	return true
}

// place writes the group d into dst, a record over the block [lo, lo+w)
// that covers d's: a copy, every slot outside d's block zero.
//
//borg:noalloc
func place(dst []float64, lo, w int, d *Covar) {
	k := len(d.Sum)
	dst[0] = d.Count
	if k == w {
		copy(dst[1:], d.Sum)
		copy(dst[1+w:], d.Q)
		return
	}
	clear(dst[1:])
	o := d.Lo - lo
	copy(dst[1+o:], d.Sum)
	for i := 0; i < k; i++ {
		copy(dst[1+w+(o+i)*w+o:][:k], d.Q[i*k:][:k])
	}
}

// zeroRec reports whether every statistic of rec is exactly zero.
func zeroRec(rec []float64) bool {
	for _, v := range rec {
		if v != 0 {
			return false
		}
	}
	return true
}

// reset empties e for a result over the block [lo, lo+w), keeping its
// arrays, its index among them.
func (e *Cofactor) reset(lo, w int) {
	e.lo, e.w, e.n = lo, w, 0
	e.keys, e.data, e.free = e.keys[:0], e.data[:0], e.free[:0]
	if e.at != nil {
		e.at = e.at[:0]
	}
}

// cover widens e's block to the hull of it and [lo, lo+w) by copying
// every group into a record of the hull, in key order. The maintenance
// path never takes it: every element it adds into another has the
// other's block.
func (e *Cofactor) cover(lo, w int) {
	hlo, hw := hull(e.lo, e.w, lo, w)
	if hlo == e.lo && hw == e.w {
		return
	}
	if e.n == 0 {
		e.reset(hlo, hw)
		return
	}
	old := *e
	e.lo, e.w, e.at, e.free = hlo, hw, nil, nil
	e.data = make([]float64, e.n*e.stride())
	var g Covar
	for i := 0; i < e.n; i++ {
		place(e.rec(i), hlo, hw, old.At(i, &g))
	}
}

// index gives e the identity index, so that births and prunes may leave
// its records out of key order.
func (e *Cofactor) index() {
	e.at = make([]int32, e.n, e.n+e.n/8+1)
	for i := range e.at {
		e.at[i] = int32(i)
	}
}

// birth inserts key as group i and returns a record for it, contents
// unspecified: a pruned group's, else the one past the last. No other
// group's record moves.
func (e *Cofactor) birth(i int, key []uint64) int {
	st := e.stride()
	r := len(e.data) / st
	if k := len(e.free); k > 0 {
		r, e.free = int(e.free[k-1]), e.free[:k-1]
	} else {
		e.data = slices.Grow(e.data, st)[:len(e.data)+st]
	}
	if e.at == nil && (i != e.n || r != e.n) {
		e.index()
	}
	if e.at != nil {
		e.at = slices.Insert(e.at, i, int32(r))
	}
	e.keys = slices.Insert(e.keys, i*keyWords(e.K), key...)
	e.n++
	return r
}

// remove prunes group i; its record is reused by a later birth.
func (e *Cofactor) remove(i int) {
	if e.at == nil && i != e.n-1 {
		e.index()
	}
	w := keyWords(e.K)
	e.keys = slices.Delete(e.keys, i*w, i*w+w)
	if e.at == nil {
		e.data = e.data[:len(e.data)-e.stride()]
	} else {
		e.free = append(e.free, e.at[i])
		e.at = slices.Delete(e.at, i, i+1)
	}
	e.n--
}

// fold adds the group d, over a block e's covers, into the group under
// key, pruning it when the statistics cancel to exact zero so retraction
// shrinks the run for real. A missing group is born as a copy of d, or
// with to non-nil as d with its feature slots renamed (Covar.AddMapped)
// onto a zero full-support record.
func (e *Cofactor) fold(key []uint64, d *Covar, to []int) {
	var g Covar
	i, ok := e.search(key)
	if !ok {
		rec := e.rec(e.birth(i, key))
		if to == nil {
			place(rec, e.lo, e.w, d)
			return
		}
		clear(rec)
		e.window(&g, rec).AddMapped(d, to)
		rec[0] = g.Count
		return
	}
	rec := e.rec(e.recOf(i))
	e.window(&g, rec).AddMapped(d, to)
	if rec[0] = g.Count; g.IsZero() {
		e.remove(i)
	}
}

// spare returns the record past the last, within capacity: where MulInto
// computes a product before keep takes it or it is dropped.
func (e *Cofactor) spare() []float64 {
	st := e.stride()
	e.data = slices.Grow(e.data, st)
	return e.data[len(e.data):][:st:st]
}

// keep folds the product p, computed into e's spare record, into the
// group under key: added to the group present (pruned on exact zero), or
// born as a copy of the spare — in place when the birth takes the record
// past the last.
func (e *Cofactor) keep(key []uint64, spare []float64, p *Covar) {
	i, ok := e.search(key)
	if !ok {
		copy(e.rec(e.birth(i, key)), spare)
		return
	}
	var g Covar
	rec := e.rec(e.recOf(i))
	e.window(&g, rec).AddInPlace(p)
	if rec[0] = g.Count; g.IsZero() {
		e.remove(i)
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

// One returns the multiplicative identity: a single all-unbound group
// whose value is the covariance-ring one.
func (r CofactorRing) One() *Cofactor { return r.LiftCat(nil, nil, nil, nil) }

// LiftInto implements Algebra; it binds no categorical slot. Maintenance
// uses LiftCatInto.
func (r CofactorRing) LiftInto(dst *Cofactor, idx []int, vals []float64) *Cofactor {
	return r.LiftCatInto(dst, idx, vals, nil, nil)
}

// LiftCat maps one tuple to its ring element: a single group binding
// the owned categorical slots catIdx to the tuple's codes, whose value
// is the covariance-ring lift of the owned continuous features.
func (r CofactorRing) LiftCat(idx []int, vals []float64, catIdx []int, cats []int32) *Cofactor {
	return r.LiftCatInto(r.Zero(), idx, vals, catIdx, cats)
}

// LiftCatInto is LiftCat into dst, whose block becomes the tuple's.
func (r CofactorRing) LiftCatInto(dst *Cofactor, idx []int, vals []float64, catIdx []int, cats []int32) *Cofactor {
	lo, k := 0, 0
	for _, i := range idx {
		lo, k = hull(lo, k, i, 1)
	}
	dst.reset(lo, k)
	w, st := keyWords(r.K), dst.stride()
	dst.keys = packCatKey(slices.Grow(dst.keys, w)[:w], catIdx, cats)
	dst.data = slices.Grow(dst.data, st)[:st]
	if dst.n = 1; dst.at != nil {
		dst.at = append(dst.at, 0)
	}
	var g Covar
	r.covar().LiftInto(dst.window(&g, dst.data), idx, vals)
	dst.data[0] = g.Count
	return dst
}

// Add returns a+b componentwise (group union, covariance addition) by a
// sorted merge into a new element in key order, over the hull of the
// operands' blocks: a group present on one side is copied, the sum of
// one present on both is computed from zero.
func (r CofactorRing) Add(a, b *Cofactor) *Cofactor {
	out := r.Zero()
	out.lo, out.w = hull(a.lo, a.w, b.lo, b.w)
	out.keys = make([]uint64, 0, len(a.keys)+len(b.keys))
	out.data = make([]float64, 0, (a.n+b.n)*out.stride())
	var ga, gb, s Covar
	i, j := 0, 0
	for i < a.n || j < b.n {
		switch {
		case j == b.n || (i < a.n && compareKeys(a.key(i), b.key(j)) < 0):
			place(out.rec(out.birth(out.n, a.key(i))), out.lo, out.w, a.At(i, &ga))
			i++
		case i == a.n || compareKeys(b.key(j), a.key(i)) < 0:
			place(out.rec(out.birth(out.n, b.key(j))), out.lo, out.w, b.At(j, &gb))
			j++
		default:
			rec := out.rec(out.birth(out.n, a.key(i)))
			clear(rec)
			out.window(&s, rec).AddInPlace(a.At(i, &ga))
			s.AddInPlace(b.At(j, &gb))
			if rec[0] = s.Count; s.IsZero() {
				out.remove(out.n - 1)
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// AddInPlace folds src into dst group by group (see Cofactor.fold):
// exact cancellation prunes.
func (r CofactorRing) AddInPlace(dst, src *Cofactor) { dst.AddMapped(src, nil) }

// AddMapped is AddInPlace of src into e with, when to is non-nil, the
// continuous feature slots of src renamed by it (Covar.AddMapped): e is
// then a root result, whose groups all have full support.
func (e *Cofactor) AddMapped(src *Cofactor, to []int) {
	if src.n == 0 {
		return
	}
	if to != nil {
		e.cover(0, e.N)
	} else {
		e.cover(src.lo, src.w)
	}
	var g Covar
	for j := 0; j < src.n; j++ {
		e.fold(src.key(j), src.At(j, &g), to)
	}
}

// Mul returns the group-wise product: every pair of groups whose bound
// slots agree contributes the covariance-ring product under the merged
// key; disagreeing pairs contribute zero. Distinct pairs can merge onto
// ONE output key; they accumulate in pair order (a-major, both runs
// ascending), which fixes the float-addition order.
func (r CofactorRing) Mul(a, b *Cofactor) *Cofactor { return r.MulInto(r.Zero(), a, b) }

// MulInto is Mul into dst, which must alias neither operand. Its block
// is the hull of the operands', the block of every pair's product.
func (r CofactorRing) MulInto(dst, a, b *Cofactor) *Cofactor {
	dst.reset(hull(a.lo, a.w, b.lo, b.w))
	var buf [4]uint64
	key := slices.Grow(buf[:0], keyWords(r.K))[:keyWords(r.K)]
	var ga, gb, p Covar
	for i := 0; i < a.n; i++ {
		a.At(i, &ga)
		for j := 0; j < b.n; j++ {
			if mergeCatKeys(key, a.key(i), b.key(j)) {
				rec := dst.spare()
				r.covar().MulInto(dst.window(&p, rec), &ga, b.At(j, &gb))
				if rec[0] = p.Count; !p.IsZero() {
					dst.keep(key, rec, &p)
				}
			}
		}
	}
	return dst
}

// Neg returns the additive inverse: every group negated.
func (r CofactorRing) Neg(a *Cofactor) *Cofactor { return r.NegInto(nil, a) }

// NegInto negates a in place when dst is a itself, and into a copy of a
// in dst (nil: a new element) otherwise. Counts are negated and every
// other statistic written as 0 - v, as CovarRing.NegInto writes them.
func (r CofactorRing) NegInto(dst, a *Cofactor) *Cofactor {
	if dst != a {
		dst = r.cloneInto(dst, a)
	}
	for i := 0; i < dst.n; i++ {
		rec := dst.rec(dst.recOf(i))
		rec[0] = -rec[0]
		for j, v := range rec[1:] {
			rec[1+j] = 0 - v
		}
	}
	return dst
}

// IsZero reports whether the element is the additive identity. Groups
// are pruned eagerly on cancellation, so an empty run is the canonical
// zero; any surviving group with nonzero statistics makes the element
// nonzero.
func (r CofactorRing) IsZero(e *Cofactor) bool {
	for i := 0; i < e.n; i++ {
		if !zeroRec(e.rec(e.recOf(i))) {
			return false
		}
	}
	return true
}

// Clone deep-copies the element, its records in key order.
func (r CofactorRing) Clone(e *Cofactor) *Cofactor { return r.cloneInto(nil, e) }

// cloneInto copies e into dst (nil: a new element) in key order.
func (r CofactorRing) cloneInto(dst, e *Cofactor) *Cofactor {
	if dst == nil {
		dst = r.Zero()
	}
	dst.reset(e.lo, e.w)
	dst.at, dst.n = nil, e.n
	dst.keys = append(dst.keys, e.keys...)
	dst.data = slices.Grow(dst.data, e.n*e.stride())
	for i := 0; i < e.n; i++ {
		dst.data = append(dst.data, e.rec(e.recOf(i))...)
	}
	return dst
}
