package ring

import "fmt"

// Covar is an element of the covariance ring over N continuous features:
// a triple (c, s, Q) of a tuple count, a per-feature sum vector, and a
// second-moment matrix. One Covar value carries, simultaneously, every
// aggregate SUM(1), SUM(x_i), SUM(x_i*x_j) of a covariance-matrix batch —
// this is the shared computation across aggregates that Section 5.2
// attributes much of LMFAO's and F-IVM's speedup to.
//
// An element stores only the block of feature slots it can be non-zero
// on: with k = len(Sum), Sum[i] is the sum of slot Lo+i and Q the k×k
// row-major symmetric matrix over slots [Lo, Lo+k); every slot outside
// the block is zero by construction and takes no memory. Sum and Q are
// two windows of one backing array, so an element is two heap objects
// and its first touch one cache miss after the header. An F-IVM view at
// a join-tree node holds the block of its subtree's features; a
// full-support element (Zero, Lift, every sum that was started from
// Zero, the maintained root result) has Lo = 0 and k = N, which is the
// dense layout Sum[N] / Q[N·N] its readers index.
type Covar struct {
	N     int
	Lo    int // first feature slot of the block
	Count float64
	Sum   []float64 // slots [Lo, Lo+len(Sum))
	Q     []float64 // len(Sum)², row-major, symmetric, same slots
}

// CovarRing is the ring of Covar triples over a fixed feature count N,
// with the sum and product rules of Section 5.2:
//
//	(c1,s1,Q1) + (c2,s2,Q2) = (c1+c2, s1+s2, Q1+Q2)
//	(c1,s1,Q1) * (c2,s2,Q2) = (c1*c2, c2*s1 + c1*s2,
//	                           c2*Q1 + c1*Q2 + s1*s2' + s2*s1')
type CovarRing struct {
	N int
}

// Zero returns the additive identity (0, 0-vector, 0-matrix) with full
// support, so it serves as an accumulator for any element of the ring
// and, offered as a destination, has room for any block.
func (r CovarRing) Zero() *Covar {
	e := &Covar{N: r.N}
	e.block(0, r.N)
	return e
}

// block makes e cover slots [lo, lo+k) with unspecified contents, on its
// own backing array when that has the room.
func (e *Covar) block(lo, k int) {
	e.Lo = lo
	if len(e.Sum) == k && len(e.Q) == k*k {
		return
	}
	buf := e.Sum[:cap(e.Sum)]
	if len(buf) < k+k*k {
		buf = newBlock(k)
	}
	e.Sum, e.Q = buf[:k], buf[k:k+k*k]
}

// newBlock allocates the array of a k-wide block. Not inlined, so that
// it is not charged to the allocation-free kernels: their destinations
// come from Zero and never take this path.
//
//go:noinline
func newBlock(k int) []float64 { return make([]float64, k+k*k) }

// hull returns the smallest block covering blocks [alo, alo+ak) and
// [blo, blo+bk); an empty block covers nothing.
func hull(alo, ak, blo, bk int) (lo, k int) {
	switch {
	case bk == 0:
		return alo, ak
	case ak == 0:
		return blo, bk
	}
	lo = min(alo, blo)
	return lo, max(alo+ak, blo+bk) - lo
}

// widened returns a copy of e over the wider block [lo, lo+k).
func (e *Covar) widened(lo, k int) *Covar {
	out := &Covar{N: e.N}
	out.block(lo, k)
	out.AddInPlace(e)
	return out
}

// One returns the multiplicative identity (1, 0-vector, 0-matrix).
func (r CovarRing) One() *Covar {
	e := r.Zero()
	e.Count = 1
	return e
}

// Add returns a + b as a fresh full-support element.
func (r CovarRing) Add(a, b *Covar) *Covar {
	out := r.Zero()
	out.AddInPlace(a)
	out.AddInPlace(b)
	return out
}

// Mul returns a * b as a fresh element, following the Section 5.2 rule.
func (r CovarRing) Mul(a, b *Covar) *Covar { return r.MulInto(r.Zero(), a, b) }

// Neg returns -a; with it, deletions are additions of negated elements.
func (r CovarRing) Neg(a *Covar) *Covar { return r.NegInto(r.Zero(), a) }

// NegInto computes -a into dst, which may be a itself, and returns dst.
// Sums and moments are written as 0 - v, so a zero stays +0 (see MulInto).
//
//borg:noalloc
func (r CovarRing) NegInto(dst, a *Covar) *Covar {
	dst.block(a.Lo, len(a.Sum))
	dst.Count = -a.Count
	sum, q := dst.Sum[:len(a.Sum)], dst.Q[:len(a.Q)]
	for i, v := range a.Sum {
		sum[i] = 0 - v
	}
	for i, v := range a.Q {
		q[i] = 0 - v
	}
	return dst
}

// AddInPlace accumulates src into dst (Algebra adapter).
func (r CovarRing) AddInPlace(dst, src *Covar) { dst.AddInPlace(src) }

// IsZero reports whether e is exactly the additive identity (Algebra
// adapter).
func (r CovarRing) IsZero(e *Covar) bool { return e.IsZero() }

// Clone returns a deep copy of e (Algebra adapter).
func (r CovarRing) Clone(e *Covar) *Covar { return e.Clone() }

// AddInPlace accumulates b into a, over b's block only. a's block grows
// to cover b's when it does not: never on the maintenance path, where
// the two operands of a sum belong to one join-tree node or a is the
// full-support root.
//
//borg:noalloc
func (a *Covar) AddInPlace(b *Covar) {
	a.Count += b.Count
	kb := len(b.Sum)
	if kb == 0 {
		return
	}
	if b.Lo < a.Lo || b.Lo+kb > a.Lo+len(a.Sum) {
		*a = *a.widened(hull(a.Lo, len(a.Sum), b.Lo, kb))
	}
	sum := a.Sum[b.Lo-a.Lo:][:kb]
	for i, v := range b.Sum {
		sum[i] += v
	}
	a.addQ(b)
}

// addQ accumulates b's second moments into a's; a's block covers b's.
//
//borg:noalloc
func (a *Covar) addQ(b *Covar) {
	ka, kb, o := len(a.Sum), len(b.Sum), b.Lo-a.Lo
	if ka == kb {
		q := a.Q[:len(b.Q)]
		for i, v := range b.Q {
			q[i] += v
		}
		return
	}
	for i := 0; i < kb; i++ {
		row := a.Q[(o+i)*ka+o:][:kb]
		for j, v := range b.Q[i*kb:][:kb] {
			row[j] += v
		}
	}
}

// AddMapped accumulates b into the full-support a through a renaming of
// the feature slots: slot i of b is slot to[i] of a; a nil to renames
// nothing. It is how an F-IVM root delta, computed over the maintainer's
// tree-ordered slots, lands on the result in the caller's feature order.
//
//borg:noalloc
func (a *Covar) AddMapped(b *Covar, to []int) {
	if to == nil {
		a.AddInPlace(b)
		return
	}
	a.Count += b.Count
	kb, n := len(b.Sum), a.N
	to = to[b.Lo:][:kb]
	for i, v := range b.Sum {
		a.Sum[to[i]] += v
	}
	for i, ti := range to {
		row := a.Q[ti*n:][:n]
		for j, v := range b.Q[i*kb:][:kb] {
			row[to[j]] += v
		}
	}
}

// MulInto computes a * b into dst (which must not alias a or b) and
// returns dst; its block is the hull of the operands'. Operands on
// disjoint blocks — every product of F-IVM maintenance, whose factors
// are a tuple's lift and the views of disjoint subtrees — take the block
// rule, one multiply per cell:
//
//	Q[A,A] = c_b·Q_a   Q[B,B] = c_a·Q_b   Q[A,B] = s_a ⊗ s_b
//
// Each cell is written as c·v + 0: the four-term rule adds the cell's
// other three terms, zeros, to it, and adding +0 is that sum exactly (it
// maps a -0 product to +0 and changes nothing else), so a block product
// is bitwise the dense one. Overlapping blocks take the four-term rule
// over their hull.
//
//borg:noalloc
func (r CovarRing) MulInto(dst, a, b *Covar) *Covar {
	ka, kb := len(a.Sum), len(b.Sum)
	if kb > 0 && (ka == 0 || b.Lo+kb <= a.Lo) {
		a, b, ka, kb = b, a, kb, ka // b lies below a: the block rule is symmetric
	}
	if kb > 0 && b.Lo < a.Lo+ka {
		return r.mulOverlap(dst, a, b)
	}
	// a's block ends where b's starts, or before it (gap slots are zero).
	o := ka
	if kb > 0 {
		o = b.Lo - a.Lo
	}
	k := o + kb
	dst.block(a.Lo, k)
	if o != ka {
		clear(dst.Sum)
		clear(dst.Q)
	}
	ca, cb := a.Count, b.Count
	dst.Count = ca * cb
	scale(dst.Sum, a.Sum, cb)
	scale(dst.Sum[o:], b.Sum, ca)
	for i, ai := range a.Sum {
		row := dst.Q[i*k:]
		scale(row, a.Q[i*ka:][:ka], cb)
		scale(row[o:], b.Sum, ai)
	}
	for i, bi := range b.Sum {
		row := dst.Q[(o+i)*k:]
		scale(row, a.Sum, bi)
		scale(row[o:], b.Q[i*kb:][:kb], ca)
	}
	return dst
}

// AddProduct adds the product of fs, or subtracts it when neg, into the
// full-support dst, slot i on cell to[i] (to covers every block). The
// factors lie on disjoint blocks — a root tuple's lift and child views —
// so each cell of the product is one term, added to dst once and never
// stored:
//
//	count      Π c
//	sum f      s_f · Π_{g≠f} c_g
//	Q (f,f)    Q_f · Π_{g≠f} c_g
//	Q (f,g)    s_f s_gᵀ · Π_{h≠f,g} c_h
//
// That is what the MulInto chain over fs, NegInto and AddMapped add,
// bitwise when every partial product is exact (dyadic data), else to the
// rounding of folding the counts in another order (a result cell, never
// -0, absorbs ±0 alike, and negation commutes with rounding).
//
//borg:noalloc
func (r CovarRing) AddProduct(dst *Covar, to []int, neg bool, fs []*Covar) {
	sign, n := 1.0, dst.N
	if neg {
		sign = -1
	}
	dst.Count += countsBut(fs, -1, -1, sign)
	for f, a := range fs {
		ka := len(a.Sum)
		if ka == 0 {
			continue
		}
		ta, cf := to[a.Lo:][:ka], countsBut(fs, f, -1, sign)
		for i, ti := range ta {
			dst.Sum[ti] += a.Sum[i] * cf
			row, qi := dst.Q[ti*n:][:n], a.Q[i*ka:][:ka]
			for j, tj := range ta {
				row[tj] += qi[j] * cf
			}
		}
		for g := f + 1; g < len(fs); g++ {
			b := fs[g]
			if len(b.Sum) == 0 {
				continue
			}
			tb, cfg := to[b.Lo:][:len(b.Sum)], countsBut(fs, f, g, sign)
			for i, ti := range ta {
				x, row := a.Sum[i]*cfg, dst.Q[ti*n:][:n]
				for j, tj := range tb {
					v := x * b.Sum[j]
					row[tj] += v
					dst.Q[tj*n+ti] += v
				}
			}
		}
	}
}

// countsBut is sign times the counts of fs but f's and g's, in order.
func countsBut(fs []*Covar, f, g int, sign float64) float64 {
	c := sign
	for h, e := range fs {
		if h != f && h != g {
			c *= e.Count
		}
	}
	return c
}

// scale writes c·src + 0 over dst[:len(src)].
//
//borg:noalloc
func scale(dst, src []float64, c float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = c*v + 0
	}
}

// mulOverlap is the general product: the four-term rule over the hull
// of two overlapping blocks, each operand widened to it first.
func (r CovarRing) mulOverlap(dst, a, b *Covar) *Covar {
	lo, n := hull(a.Lo, len(a.Sum), b.Lo, len(b.Sum))
	if len(a.Sum) != n {
		a = a.widened(lo, n)
	}
	if len(b.Sum) != n {
		b = b.widened(lo, n)
	}
	dst.block(lo, n)
	dst.Count = a.Count * b.Count
	for i := range dst.Sum {
		dst.Sum[i] = b.Count*a.Sum[i] + a.Count*b.Sum[i]
	}
	for i := 0; i < n; i++ {
		ai, bi := a.Sum[i], b.Sum[i]
		arow, brow, drow := a.Q[i*n:(i+1)*n], b.Q[i*n:(i+1)*n], dst.Q[i*n:(i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = b.Count*arow[j] + a.Count*brow[j] + ai*b.Sum[j] + bi*a.Sum[j]
		}
	}
	return dst
}

// Lift maps one tuple's feature values into the ring: count 1, the values
// in the given feature slots, and their pairwise products in Q. idx and
// vals run in parallel; idx entries index the global feature space [0,N).
// The element has full support (LiftInto's has the tuple's own block).
func (r CovarRing) Lift(idx []int, vals []float64) *Covar {
	return r.Zero().lift(idx, vals)
}

// LiftInto is Lift into dst, which must come from the same ring, is
// fully overwritten and is returned; the element's block spans the
// slots of idx and no more. It avoids allocation on per-tuple
// maintenance paths.
//
//borg:noalloc
func (r CovarRing) LiftInto(dst *Covar, idx []int, vals []float64) *Covar {
	lo, k := 0, 0
	for _, i := range idx {
		lo, k = hull(lo, k, i, 1)
	}
	dst.block(lo, k)
	if k != len(idx) {
		clear(dst.Sum)
		clear(dst.Q)
	}
	return dst.lift(idx, vals)
}

// lift writes one tuple's values and their pairwise products into e,
// whose block covers idx and is zero on every slot idx does not name.
//
//borg:noalloc
func (e *Covar) lift(idx []int, vals []float64) *Covar {
	e.Count = 1
	k := len(e.Sum)
	for t, i := range idx {
		e.Sum[i-e.Lo] = vals[t]
		row := e.Q[(i-e.Lo)*k:][:k]
		for u, j := range idx {
			row[j-e.Lo] = vals[t] * vals[u]
		}
	}
	return e
}

// IsZero reports whether a is exactly the additive identity. Count is
// checked first: it is a (float64-exact) combination count, so any
// element with live support exits on the first compare and the scan of
// the block only runs for candidates that really drained to zero —
// which is what lets the IVM maintainers prune dead view entries
// without taxing the insert hot path.
func (a *Covar) IsZero() bool {
	if a.Count != 0 {
		return false
	}
	for _, v := range a.Sum {
		if v != 0 {
			return false
		}
	}
	for _, v := range a.Q {
		if v != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of a: the header and one array sized to a's
// block.
func (a *Covar) Clone() *Covar {
	out := &Covar{N: a.N}
	a.CopyInto(out)
	return out
}

// CopyInto copies a into dst, reusing dst's backing slices when they
// already have the right length — the allocation-free counterpart of
// Clone for epoch publication, where the destination lives in a
// caller-managed arena.
func (a *Covar) CopyInto(dst *Covar) {
	dst.N = a.N
	dst.Count = a.Count
	dst.block(a.Lo, len(a.Sum))
	copy(dst.Sum, a.Sum)
	copy(dst.Q, a.Q)
}

// ApproxEqual reports whether a and b agree within tol on every
// component, whatever blocks they store.
func (a *Covar) ApproxEqual(b *Covar, tol float64) bool {
	lo, k := hull(a.Lo, len(a.Sum), b.Lo, len(b.Sum))
	a, b = a.widened(lo, k), b.widened(lo, k)
	ok := a.N == b.N && close(a.Count, b.Count, tol)
	for i := 0; ok && i < len(a.Sum); i++ {
		ok = close(a.Sum[i], b.Sum[i], tol)
	}
	for i := 0; ok && i < len(a.Q); i++ {
		ok = close(a.Q[i], b.Q[i], tol)
	}
	return ok
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		if -bb > m {
			m = -bb
		}
	} else if bb > m {
		m = bb
	}
	return d <= tol*(1+m)
}

// String renders a compact summary, useful in test failures.
func (a *Covar) String() string {
	return fmt.Sprintf("Covar{n=%d slots=[%d,%d) count=%g sum=%v}", a.N, a.Lo, a.Lo+len(a.Sum), a.Count, a.Sum)
}
