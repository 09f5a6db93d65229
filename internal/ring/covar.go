package ring

import "fmt"

// Covar is an element of the covariance ring over n continuous features:
// a triple (c, s, Q) of a tuple count, a per-feature sum vector, and a
// second-moment matrix. One Covar value carries, simultaneously, every
// aggregate SUM(1), SUM(x_i), SUM(x_i*x_j) of a covariance-matrix batch —
// this is the shared computation across aggregates that Section 5.2
// attributes much of LMFAO's and F-IVM's speedup to.
//
// Q is stored as a dense n×n row-major symmetric matrix. Feature counts in
// the evaluated workloads are a few tens, so the O(n²) element size is a
// few kilobytes and ring operations vectorize well.
type Covar struct {
	N     int
	Count float64
	Sum   []float64 // length N
	Q     []float64 // length N*N, row-major, symmetric
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

// Zero returns the additive identity (0, 0-vector, 0-matrix).
func (r CovarRing) Zero() *Covar {
	return &Covar{N: r.N, Sum: make([]float64, r.N), Q: make([]float64, r.N*r.N)}
}

// One returns the multiplicative identity (1, 0-vector, 0-matrix).
func (r CovarRing) One() *Covar {
	e := r.Zero()
	e.Count = 1
	return e
}

// Add returns a + b as a fresh element.
func (r CovarRing) Add(a, b *Covar) *Covar {
	out := r.Zero()
	out.Count = a.Count + b.Count
	for i := range out.Sum {
		out.Sum[i] = a.Sum[i] + b.Sum[i]
	}
	for i := range out.Q {
		out.Q[i] = a.Q[i] + b.Q[i]
	}
	return out
}

// Mul returns a * b as a fresh element, following the Section 5.2 rule.
func (r CovarRing) Mul(a, b *Covar) *Covar { return r.MulInto(r.Zero(), a, b) }

// Neg returns -a; with it, deletions are additions of negated elements.
func (r CovarRing) Neg(a *Covar) *Covar { return r.NegInto(r.Zero(), a) }

// NegInto computes -a into dst, which may be a itself, and returns dst.
//
//borg:noalloc
func (r CovarRing) NegInto(dst, a *Covar) *Covar {
	dst.Count = -a.Count
	for i, v := range a.Sum {
		dst.Sum[i] = -v
	}
	for i, v := range a.Q {
		dst.Q[i] = -v
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

// AddInPlace accumulates b into a.
func (a *Covar) AddInPlace(b *Covar) {
	a.Count += b.Count
	for i := range a.Sum {
		a.Sum[i] += b.Sum[i]
	}
	for i := range a.Q {
		a.Q[i] += b.Q[i]
	}
}

// SubInPlace subtracts b from a.
func (a *Covar) SubInPlace(b *Covar) {
	a.Count -= b.Count
	for i := range a.Sum {
		a.Sum[i] -= b.Sum[i]
	}
	for i := range a.Q {
		a.Q[i] -= b.Q[i]
	}
}

// MulInto computes a * b into dst (which must not alias a or b) and
// returns dst.
//
//borg:noalloc
func (r CovarRing) MulInto(dst, a, b *Covar) *Covar {
	dst.Count = a.Count * b.Count
	for i := range dst.Sum {
		dst.Sum[i] = b.Count*a.Sum[i] + a.Count*b.Sum[i]
	}
	n := r.N
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
func (r CovarRing) Lift(idx []int, vals []float64) *Covar {
	return r.LiftInto(r.Zero(), idx, vals)
}

// LiftInto is Lift reusing dst, which must come from the same ring, is
// fully overwritten and is returned. It avoids allocation on per-tuple
// maintenance paths.
//
//borg:noalloc
func (r CovarRing) LiftInto(dst *Covar, idx []int, vals []float64) *Covar {
	dst.Count = 1
	for i := range dst.Sum {
		dst.Sum[i] = 0
	}
	for i := range dst.Q {
		dst.Q[i] = 0
	}
	for k, i := range idx {
		dst.Sum[i] = vals[k]
	}
	n := r.N
	for k, i := range idx {
		for l, j := range idx {
			dst.Q[i*n+j] = vals[k] * vals[l]
		}
	}
	return dst
}

// IsZero reports whether a is exactly the additive identity. Count is
// checked first: it is a (float64-exact) combination count, so any
// element with live support exits on the first compare and the full
// O(n²) scan only runs for candidates that really drained to zero —
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

// Clone returns a deep copy of a.
func (a *Covar) Clone() *Covar {
	out := &Covar{N: a.N, Count: a.Count, Sum: make([]float64, len(a.Sum)), Q: make([]float64, len(a.Q))}
	copy(out.Sum, a.Sum)
	copy(out.Q, a.Q)
	return out
}

// CopyInto copies a into dst, reusing dst's backing slices when they
// already have the right length — the allocation-free counterpart of
// Clone for epoch publication, where the destination lives in a
// caller-managed arena.
func (a *Covar) CopyInto(dst *Covar) {
	dst.N = a.N
	dst.Count = a.Count
	if len(dst.Sum) != len(a.Sum) {
		dst.Sum = make([]float64, len(a.Sum))
	}
	if len(dst.Q) != len(a.Q) {
		dst.Q = make([]float64, len(a.Q))
	}
	copy(dst.Sum, a.Sum)
	copy(dst.Q, a.Q)
}

// ApproxEqual reports whether a and b agree within tol on every component.
func (a *Covar) ApproxEqual(b *Covar, tol float64) bool {
	if a.N != b.N || !close(a.Count, b.Count, tol) {
		return false
	}
	for i := range a.Sum {
		if !close(a.Sum[i], b.Sum[i], tol) {
			return false
		}
	}
	for i := range a.Q {
		if !close(a.Q[i], b.Q[i], tol) {
			return false
		}
	}
	return true
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
	return fmt.Sprintf("Covar{n=%d count=%g sum0=%g q00=%g}", a.N, a.Count, at(a.Sum, 0), at(a.Q, 0))
}

func at(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
