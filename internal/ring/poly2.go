package ring

import (
	"fmt"
	"sort"
)

// Poly2Degree is the moment order the lifted ring carries: products of
// two degree-2 expanded features are degree-4 monomials of the base
// features, so 4 is exactly what the normal equations of a degree-2
// polynomial regression touch.
const Poly2Degree = 4

// Poly2 is an element of the lifted degree-2 ring over N base features:
// a dense vector of every moment SUM(x₁^p₁·…·x_N^p_N) with total degree
// p₁+…+p_N ≤ 4. The degree-≤2 prefix is exactly a covariance triple
// (count, sums, second moments); the higher-degree entries are the extra
// sufficient statistics of degree-2 polynomial regression, whose
// EXPANDED feature space {1, x_i, x_i·x_j} needs base-feature moments up
// to degree 4. One Poly2 value therefore subsumes a Covar and feeds the
// whole Section 2.1 model family.
//
// M is indexed by the owning Poly2Ring's monomial enumeration (graded,
// lexicographic within each degree); M[0] is the empty monomial, i.e.
// the tuple count.
type Poly2 struct {
	ring *Poly2Ring
	M    []float64
}

// Poly2Ring is the ring of Poly2 elements over a fixed feature count N.
// Addition is componentwise; multiplication is the truncated convolution
//
//	m_p(a·b) = Σ_{p1+p2=p} m_{p1}(a) · m_{p2}(b)
//
// — the product rule of the truncated polynomial ring R[x₁..x_N]/(deg>4).
// For elements supported on DISJOINT variable sets (the only shape the
// join-tree maintenance ever multiplies: lifts and views of disjoint
// subtrees), the unique decomposition p = p|A + p|B makes the
// convolution compute exactly the joint moments of the concatenated
// tuples, the same way CovarRing.Mul does for degree ≤ 2.
//
// Construct with NewPoly2Ring: the monomial enumeration and the Mul
// program (every ordered index pair with a degree-≤4 product) are
// precomputed once per ring.
type Poly2Ring struct {
	N int
	// exps[i] is monomial i's exponent vector (length N); exps[0] is the
	// empty monomial (the count).
	exps [][]uint8
	// index resolves a packed monomial key (see monoKey) to its index.
	index map[uint64]int
	// vars/pows hold monomial i's nonzero positions, for sparse walks.
	vars [][]int
	pows [][]uint8
	// prog is the Mul program: out[dst] += a[ai] * b[bi] per step.
	prog []poly2Step
	// sumIdx[i] and momIdx[i*N+j] locate the covariance-triple entries.
	sumIdx []int
	momIdx []int
}

type poly2Step struct {
	dst, ai, bi int32
}

// NewPoly2Ring builds the lifted ring over n features, precomputing the
// monomial enumeration and the convolution program.
func NewPoly2Ring(n int) *Poly2Ring {
	r := &Poly2Ring{N: n, index: make(map[uint64]int)}
	cur := make([]uint8, n)
	add := func() {
		e := append([]uint8(nil), cur...)
		r.index[monoKeyExps(e)] = len(r.exps)
		r.exps = append(r.exps, e)
	}
	// Graded enumeration: all exponent vectors of total degree exactly d,
	// for d = 0..Poly2Degree, lexicographic within each degree.
	var emitExact func(pos, left int)
	emitExact = func(pos, left int) {
		if pos == n-1 {
			cur[pos] = uint8(left)
			add()
			cur[pos] = 0
			return
		}
		for p := 0; p <= left; p++ {
			cur[pos] = uint8(p)
			emitExact(pos+1, left-p)
			cur[pos] = 0
		}
	}
	if n == 0 {
		add() // only the empty monomial: the ring degenerates to counts
	} else {
		for d := 0; d <= Poly2Degree; d++ {
			emitExact(0, d)
		}
	}
	r.vars = make([][]int, len(r.exps))
	r.pows = make([][]uint8, len(r.exps))
	degs := make([]int, len(r.exps))
	for i, e := range r.exps {
		for v, p := range e {
			if p > 0 {
				r.vars[i] = append(r.vars[i], v)
				r.pows[i] = append(r.pows[i], p)
				degs[i] += int(p)
			}
		}
	}
	// Mul program: every ordered pair (ai, bi) whose degrees sum within
	// the truncation contributes to the monomial exps[ai]+exps[bi].
	sum := make([]uint8, n)
	for ai := range r.exps {
		for bi := range r.exps {
			if degs[ai]+degs[bi] > Poly2Degree {
				continue
			}
			for v := range sum {
				sum[v] = r.exps[ai][v] + r.exps[bi][v]
			}
			dst := r.index[monoKeyExps(sum)]
			r.prog = append(r.prog, poly2Step{dst: int32(dst), ai: int32(ai), bi: int32(bi)})
		}
	}
	r.sumIdx = make([]int, n)
	r.momIdx = make([]int, n*n)
	for i := 0; i < n; i++ {
		r.sumIdx[i] = r.mustIndex([]int{i}, []uint8{1})
		for j := 0; j < n; j++ {
			if i == j {
				r.momIdx[i*n+j] = r.mustIndex([]int{i}, []uint8{2})
			} else {
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				r.momIdx[i*n+j] = r.mustIndex([]int{a, b}, []uint8{1, 1})
			}
		}
	}
	return r
}

// monoKeyExps packs a full exponent vector into the sparse monomial key.
func monoKeyExps(e []uint8) uint64 {
	var key uint64
	shift := 0
	for v, p := range e {
		if p == 0 {
			continue
		}
		key |= (uint64(v)<<3 | uint64(p)) << shift
		shift += 16
	}
	return key
}

// monoKey packs a sparse monomial (ascending variable indexes with their
// powers) into a uint64 lookup key: degree ≤ 4 means at most four
// factors, 16 bits each (13-bit variable, 3-bit power).
func monoKey(vars []int, pows []uint8) uint64 {
	var key uint64
	shift := 0
	for k, v := range vars {
		if pows[k] == 0 {
			continue
		}
		key |= (uint64(v)<<3 | uint64(pows[k])) << shift
		shift += 16
	}
	return key
}

// mustIndex formats the packed key, not the slices, so that its
// arguments stay on the caller's stack.
func (r *Poly2Ring) mustIndex(vars []int, pows []uint8) int {
	key := monoKey(vars, pows)
	i, ok := r.index[key]
	if !ok {
		panic(fmt.Sprintf("ring: monomial with key %#x not enumerated", key))
	}
	return i
}

// Len returns the number of maintained moments (monomials of degree ≤ 4
// over N features).
func (r *Poly2Ring) Len() int { return len(r.exps) }

// Monomial returns monomial i's nonzero variables and powers (aliased —
// callers must not mutate).
func (r *Poly2Ring) Monomial(i int) (vars []int, pows []uint8) {
	return r.vars[i], r.pows[i]
}

// IndexOf resolves the moment index of the monomial with the given
// ascending variable indexes and powers, or -1 when its total degree
// exceeds the truncation. Variables must be distinct and ascending with
// powers ≥ 1.
func (r *Poly2Ring) IndexOf(vars []int, pows []uint8) int {
	total := 0
	for _, p := range pows {
		total += int(p)
	}
	if total > Poly2Degree {
		return -1
	}
	i, ok := r.index[monoKey(vars, pows)]
	if !ok {
		return -1
	}
	return i
}

// Zero returns the additive identity.
func (r *Poly2Ring) Zero() *Poly2 {
	return &Poly2{ring: r, M: make([]float64, len(r.exps))}
}

// One returns the multiplicative identity (count 1, all moments 0).
func (r *Poly2Ring) One() *Poly2 {
	e := r.Zero()
	e.M[0] = 1
	return e
}

// Add returns a + b as a fresh element.
func (r *Poly2Ring) Add(a, b *Poly2) *Poly2 {
	out := r.Zero()
	for i := range out.M {
		out.M[i] = a.M[i] + b.M[i]
	}
	return out
}

// Mul returns a * b under the truncated convolution.
func (r *Poly2Ring) Mul(a, b *Poly2) *Poly2 { return r.MulInto(r.Zero(), a, b) }

// MulInto computes a * b into dst (which must not alias a or b) and
// returns dst.
//
//borg:noalloc
func (r *Poly2Ring) MulInto(dst, a, b *Poly2) *Poly2 {
	clear(dst.M)
	for _, s := range r.prog {
		av := a.M[s.ai]
		if av == 0 {
			continue
		}
		dst.M[s.dst] += av * b.M[s.bi]
	}
	return dst
}

// Neg returns -a; with it, deletions are additions of negated elements,
// exactly as in the covariance ring.
func (r *Poly2Ring) Neg(a *Poly2) *Poly2 { return r.NegInto(r.Zero(), a) }

// NegInto computes -a into dst, which may be a itself, and returns dst.
//
//borg:noalloc
func (r *Poly2Ring) NegInto(dst, a *Poly2) *Poly2 {
	for i, v := range a.M {
		dst.M[i] = -v
	}
	return dst
}

// Lift maps one tuple's feature values into the ring: count 1 plus every
// monomial over the OWNED variables (idx), evaluated on vals. Monomials
// touching unowned variables stay 0 — the convolution fills them in when
// lifts of join partners multiply. idx and vals run in parallel; idx
// entries index the global feature space [0, N).
//
//borg:vet-ok deadexport — ring and ml tests lift reference rows with it
func (r *Poly2Ring) Lift(idx []int, vals []float64) *Poly2 {
	return r.LiftInto(r.Zero(), idx, vals)
}

// LiftInto is Lift reusing dst, which is fully overwritten and returned.
func (r *Poly2Ring) LiftInto(dst *Poly2, idx []int, vals []float64) *Poly2 {
	clear(dst.M)
	dst.M[0] = 1
	n := len(idx)
	// Walk owned variables in ascending global order, so every emitted
	// factor list is already in canonical key order. Join-tree feature
	// ownership appends in ascending order; re-sort defensively when a
	// caller hands an unsorted set.
	if !sort.IntsAreSorted(idx) {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return idx[perm[a]] < idx[perm[b]] })
		ord, ovals := make([]int, n), make([]float64, n)
		for i, p := range perm {
			ord[i], ovals[i] = idx[p], vals[p]
		}
		idx, vals = ord, ovals
	}
	var w liftWalk
	w.r, w.m, w.idx, w.vals = r, dst.M, idx, vals
	w.walk(0, Poly2Degree, 0, 1)
	return dst
}

// liftWalk enumerates the monomials over a tuple's owned variables — a
// struct with a method rather than a recursive closure, so a lift
// allocates nothing.
type liftWalk struct {
	r    *Poly2Ring
	m    []float64
	idx  []int
	vals []float64
	vbuf [Poly2Degree]int
	pbuf [Poly2Degree]uint8
}

func (w *liftWalk) walk(k, left, used int, prod float64) {
	if used > 0 {
		w.m[w.r.mustIndex(w.vbuf[:used], w.pbuf[:used])] = prod
	}
	if left == 0 {
		return
	}
	for next := k; next < len(w.idx); next++ {
		pv := prod
		w.vbuf[used] = w.idx[next]
		for p := 1; p <= left; p++ {
			pv *= w.vals[next]
			w.pbuf[used] = uint8(p)
			w.walk(next+1, left-p, used+1, pv)
		}
	}
}

// AddInPlace accumulates src into dst (Algebra adapter).
func (r *Poly2Ring) AddInPlace(dst, src *Poly2) { dst.AddInPlace(src) }

// IsZero reports whether e is exactly the additive identity (Algebra
// adapter).
func (r *Poly2Ring) IsZero(e *Poly2) bool { return e.IsZero() }

// Clone returns a deep copy of e (Algebra adapter).
func (r *Poly2Ring) Clone(e *Poly2) *Poly2 { return e.Clone() }

// AddInPlace accumulates b into a.
func (a *Poly2) AddInPlace(b *Poly2) {
	for i := range a.M {
		a.M[i] += b.M[i]
	}
}

// IsZero reports whether a is exactly the additive identity.
func (a *Poly2) IsZero() bool {
	for _, v := range a.M {
		if v != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of a.
func (a *Poly2) Clone() *Poly2 {
	out := &Poly2{ring: a.ring, M: make([]float64, len(a.M))}
	copy(out.M, a.M)
	return out
}

// Count returns the maintained SUM(1).
func (a *Poly2) Count() float64 { return a.M[0] }

// Moment returns SUM over the join of the monomial with the given
// ascending variable indexes and powers, and whether the ring maintains
// it (total degree ≤ 4).
func (a *Poly2) Moment(vars []int, pows []uint8) (float64, bool) {
	i := a.ring.IndexOf(vars, pows)
	if i < 0 {
		return 0, false
	}
	return a.M[i], true
}

// Ring returns the owning ring (monomial enumeration and index lookups).
func (a *Poly2) Ring() *Poly2Ring { return a.ring }

// CovarInto extracts the degree-≤2 prefix into dst without allocating
// (when dst's slices are already sized) — Covar's arena-friendly twin.
func (a *Poly2) CovarInto(dst *Covar) {
	r := a.ring
	dst.N = r.N
	dst.block(0, r.N)
	dst.Count = a.M[0]
	for i := 0; i < r.N; i++ {
		dst.Sum[i] = a.M[r.sumIdx[i]]
		for j := 0; j < r.N; j++ {
			dst.Q[i*r.N+j] = a.M[r.momIdx[i*r.N+j]]
		}
	}
}

// CopyInto copies a into dst, binding dst to a's ring and reusing dst.M
// when it already has the right length — the allocation-free
// counterpart of Clone for epoch publication.
func (a *Poly2) CopyInto(dst *Poly2) {
	dst.ring = a.ring
	if len(dst.M) != len(a.M) {
		dst.M = make([]float64, len(a.M))
	}
	copy(dst.M, a.M)
}

// Bind points dst at this ring with the given backing vector (length
// must be Len()), so callers can lay Poly2 elements out in arenas they
// manage. The ring field is unexported by design — Bind is the only way
// to construct an element over external storage.
func (r *Poly2Ring) Bind(dst *Poly2, backing []float64) {
	if len(backing) != len(r.exps) {
		panic(fmt.Sprintf("ring: Bind backing has %d moments, ring has %d", len(backing), len(r.exps)))
	}
	dst.ring = r
	dst.M = backing
}

// ApproxEqual reports whether a and b agree within tol on every moment.
//
//borg:vet-ok deadexport — ring tests compare elements with it
func (a *Poly2) ApproxEqual(b *Poly2, tol float64) bool {
	if len(a.M) != len(b.M) {
		return false
	}
	for i := range a.M {
		if !close(a.M[i], b.M[i], tol) {
			return false
		}
	}
	return true
}

// String renders a compact summary, useful in test failures.
func (a *Poly2) String() string {
	return fmt.Sprintf("Poly2{n=%d count=%g len=%d}", a.ring.N, a.M[0], len(a.M))
}
