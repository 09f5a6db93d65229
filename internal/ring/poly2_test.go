package ring

import (
	"testing"
)

// interface conformance: both maintained payload rings satisfy the
// generic algebra the view trees are written against.
var (
	_ Algebra[*Covar]    = CovarRing{}
	_ Algebra[*Poly2]    = (*Poly2Ring)(nil)
	_ Algebra[*Cofactor] = CofactorRing{}
	_ Ring[*Poly2]       = (*Poly2Ring)(nil)
	_ Inverter[*Poly2]   = (*Poly2Ring)(nil)
)

// TestPoly2IntoOverwritesDst: the destination-passing forms leave no
// trace of what dst held, and negate in place.
func TestPoly2IntoOverwritesDst(t *testing.T) {
	r := NewPoly2Ring(3)
	a, b := poly2Rand(r, 1), poly2Rand(r, 2)
	dst := poly2Rand(r, 9)
	if got := r.MulInto(dst, a, b); got != dst || !dst.ApproxEqual(r.Mul(a, b), 0) {
		t.Fatal("MulInto over a dirty dst != Mul")
	}
	r.LiftInto(dst, []int{2, 0}, []float64{5, 2})
	if !dst.ApproxEqual(r.Lift([]int{2, 0}, []float64{5, 2}), 0) {
		t.Fatal("LiftInto over a dirty dst != Lift")
	}
	want := r.Neg(dst)
	if r.NegInto(dst, dst); !dst.ApproxEqual(want, 0) {
		t.Fatal("NegInto in place != Neg")
	}
}

// poly2Rand fills an element with small deterministic integers so every
// ring identity below is float64-exact.
func poly2Rand(r *Poly2Ring, seed uint64) *Poly2 {
	e := r.Zero()
	state := seed
	for i := range e.M {
		state = state*6364136223846793005 + 1442695040888963407
		e.M[i] = float64(int(state>>59) - 8)
	}
	return e
}

func TestPoly2RingAxioms(t *testing.T) {
	r := NewPoly2Ring(3)
	a, b, c := poly2Rand(r, 1), poly2Rand(r, 2), poly2Rand(r, 3)

	eq := func(name string, x, y *Poly2) {
		t.Helper()
		for i := range x.M {
			if x.M[i] != y.M[i] {
				t.Fatalf("%s: moment %d: %v vs %v", name, i, x.M[i], y.M[i])
			}
		}
	}
	eq("add comm", r.Add(a, b), r.Add(b, a))
	eq("add assoc", r.Add(a, r.Add(b, c)), r.Add(r.Add(a, b), c))
	eq("mul comm", r.Mul(a, b), r.Mul(b, a))
	eq("mul assoc", r.Mul(a, r.Mul(b, c)), r.Mul(r.Mul(a, b), c))
	eq("distrib", r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c)))
	eq("zero ident", r.Add(a, r.Zero()), a)
	eq("one ident", r.Mul(a, r.One()), a)
	eq("annihilate", r.Mul(a, r.Zero()), r.Zero())
	eq("neg", r.Add(a, r.Neg(a)), r.Zero())
}

// TestPoly2LiftJointMoments checks the factorized-evaluation property:
// the product of two single-tuple lifts over disjoint variable sets
// carries the joint moments of the concatenated tuple, up to degree 4.
func TestPoly2LiftJointMoments(t *testing.T) {
	r := NewPoly2Ring(3)
	// Tuple 1 owns x0=2, x1=3; tuple 2 owns x2=5.
	a := r.Lift([]int{0, 1}, []float64{2, 3})
	b := r.Lift([]int{2}, []float64{5})
	p := r.Mul(a, b)
	vals := []float64{2, 3, 5}
	for i := 0; i < r.Len(); i++ {
		vars, pows := r.Monomial(i)
		want := 1.0
		for k, v := range vars {
			for q := uint8(0); q < pows[k]; q++ {
				want *= vals[v]
			}
		}
		if p.M[i] != want {
			t.Fatalf("moment %d (%v^%v): got %v, want %v", i, vars, pows, p.M[i], want)
		}
	}
	if got := p.Count(); got != 1 {
		t.Fatalf("count: got %v, want 1", got)
	}
}

// TestPoly2LiftUnsortedIdx checks that an unsorted owned-variable list
// lifts identically to the sorted one.
func TestPoly2LiftUnsortedIdx(t *testing.T) {
	r := NewPoly2Ring(4)
	a := r.Lift([]int{3, 0, 2}, []float64{7, 2, 4})
	b := r.Lift([]int{0, 2, 3}, []float64{2, 4, 7})
	if !a.ApproxEqual(b, 0) {
		t.Fatalf("unsorted lift differs: %v vs %v", a.M, b.M)
	}
}

// TestPoly2CovarAgreement checks that the degree-≤2 prefix of Poly2
// arithmetic agrees exactly with CovarRing arithmetic: lifts, products
// of disjoint lifts, sums, and negation all extract to the same triples.
func TestPoly2CovarAgreement(t *testing.T) {
	pr := NewPoly2Ring(3)
	cr := CovarRing{N: 3}

	pa := pr.Lift([]int{0, 1}, []float64{2, 3})
	ca := cr.Lift([]int{0, 1}, []float64{2, 3})
	pb := pr.Lift([]int{2}, []float64{5})
	cb := cr.Lift([]int{2}, []float64{5})

	check := func(name string, p *Poly2, c *Covar) {
		t.Helper()
		got := cr.Zero()
		p.CovarInto(got)
		if !got.ApproxEqual(c, 0) {
			t.Fatalf("%s: poly2 covar %v vs covar %v", name, got, c)
		}
	}
	check("lift a", pa, ca)
	check("lift b", pb, cb)
	check("mul", pr.Mul(pa, pb), cr.Mul(ca, cb))
	check("add", pr.Add(pa, pb), cr.Add(ca, cb))
	check("neg", pr.Neg(pr.Mul(pa, pb)), cr.Neg(cr.Mul(ca, cb)))
}

func TestPoly2MomentLookup(t *testing.T) {
	r := NewPoly2Ring(2)
	// SUM over {(x0=2, x1=3), (x0=4, x1=5)} of x0²·x1².
	a := r.Lift([]int{0, 1}, []float64{2, 3})
	a.AddInPlace(r.Lift([]int{0, 1}, []float64{4, 5}))
	got, ok := a.Moment([]int{0, 1}, []uint8{2, 2})
	if !ok {
		t.Fatal("degree-4 moment not maintained")
	}
	if want := 4.0*9 + 16*25; got != want {
		t.Fatalf("x0²x1²: got %v, want %v", got, want)
	}
	if _, ok := a.Moment([]int{0, 1}, []uint8{3, 2}); ok {
		t.Fatal("degree-5 moment should not be maintained")
	}
	if got := a.Count(); got != 2 {
		t.Fatalf("count: got %v, want 2", got)
	}
	// Retraction drains back to the exact additive identity.
	a.AddInPlace(r.Neg(r.Lift([]int{0, 1}, []float64{2, 3})))
	a.AddInPlace(r.Neg(r.Lift([]int{0, 1}, []float64{4, 5})))
	if !a.IsZero() {
		t.Fatalf("drained element not zero: %v", a.M)
	}
}

// TestPoly2Len pins the enumeration size: C(n+4, 4) monomials of degree
// ≤ 4 over n variables.
func TestPoly2Len(t *testing.T) {
	for n, want := range map[int]int{1: 5, 2: 15, 3: 35, 4: 70, 8: 495} {
		if got := NewPoly2Ring(n).Len(); got != want {
			t.Fatalf("Len(n=%d): got %d, want %d", n, got, want)
		}
	}
}
