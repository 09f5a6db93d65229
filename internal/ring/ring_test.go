package ring

import (
	"math"
	"testing"
	"testing/quick"

	"borg/internal/xrand"
)

// checkRingAxioms property-tests the ring axioms of Section 3.1 (footnote 3)
// for a ring over T, given a generator of random elements and an equality.
func checkRingAxioms[T any](t *testing.T, r Ring[T], gen func() T, eq func(a, b T) bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		a, b, c := gen(), gen(), gen()
		if !eq(r.Add(a, b), r.Add(b, a)) {
			t.Fatal("Add not commutative")
		}
		if !eq(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
			t.Fatal("Add not associative")
		}
		if !eq(r.Add(r.Zero(), a), a) {
			t.Fatal("Zero not additive identity")
		}
		if !eq(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c))) {
			t.Fatal("Mul not associative")
		}
		if !eq(r.Mul(a, r.One()), a) || !eq(r.Mul(r.One(), a), a) {
			t.Fatal("One not multiplicative identity")
		}
		if !eq(r.Mul(a, b), r.Mul(b, a)) {
			t.Fatal("Mul not commutative")
		}
		if !eq(r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c))) {
			t.Fatal("Mul does not distribute over Add")
		}
		if !eq(r.Mul(r.Zero(), a), r.Zero()) {
			t.Fatal("Zero not annihilating")
		}
	}
}

func TestIntRingAxioms(t *testing.T) {
	src := xrand.New(1)
	checkRingAxioms[int64](t, Int{}, func() int64 {
		return int64(src.Intn(21) - 10)
	}, func(a, b int64) bool { return a == b })
}

func TestIntNeg(t *testing.T) {
	var r Int
	if err := quick.Check(func(a int64) bool {
		return r.Add(a, r.Neg(a)) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatRingAxiomsOnIntegers(t *testing.T) {
	src := xrand.New(2)
	checkRingAxioms[float64](t, Float{}, func() float64 {
		return float64(src.Intn(9) - 4)
	}, func(a, b float64) bool { return a == b })
}

func randCovar(r CovarRing, src *xrand.Source) *Covar {
	e := r.Zero()
	// Small integers keep float arithmetic exact, so axiom checks can use
	// exact equality semantics via ApproxEqual with zero-ish tolerance.
	e.Count = float64(src.Intn(7) - 3)
	for i := range e.Sum {
		e.Sum[i] = float64(src.Intn(7) - 3)
	}
	for i := 0; i < r.N; i++ {
		for j := 0; j <= i; j++ {
			v := float64(src.Intn(7) - 3)
			e.Q[i*r.N+j] = v
			e.Q[j*r.N+i] = v
		}
	}
	return e
}

func TestCovarRingAxioms(t *testing.T) {
	r := CovarRing{N: 3}
	src := xrand.New(3)
	checkRingAxioms[*Covar](t, r, func() *Covar { return randCovar(r, src) },
		func(a, b *Covar) bool { return a.ApproxEqual(b, 1e-12) })
}

func TestCovarNeg(t *testing.T) {
	r := CovarRing{N: 4}
	src := xrand.New(4)
	for i := 0; i < 100; i++ {
		a := randCovar(r, src)
		if !r.Add(a, r.Neg(a)).ApproxEqual(r.Zero(), 0) {
			t.Fatal("a + (-a) != 0")
		}
	}
}

// TestCovarLiftComputesMoments is the semantic heart of the covariance
// ring: lifting each tuple and summing the products across relations must
// equal the moments computed on the joined, materialized data.
func TestCovarLiftComputesMoments(t *testing.T) {
	// Feature space: x0, x1 from relation A; x2 from relation B.
	r := CovarRing{N: 3}
	src := xrand.New(5)
	type rowA struct{ x0, x1 float64 }
	type rowB struct{ x2 float64 }
	as := make([]rowA, 50)
	bs := make([]rowB, 30)
	for i := range as {
		as[i] = rowA{src.Float64(), src.Float64()}
	}
	for i := range bs {
		bs[i] = rowB{src.Float64()}
	}

	// Ring evaluation of the cross product A × B:
	// (Σ_a lift(a)) * (Σ_b lift(b)).
	sumA, sumB := r.Zero(), r.Zero()
	for _, a := range as {
		sumA.AddInPlace(r.Lift([]int{0, 1}, []float64{a.x0, a.x1}))
	}
	for _, b := range bs {
		sumB.AddInPlace(r.Lift([]int{2}, []float64{b.x2}))
	}
	got := r.Mul(sumA, sumB)

	// Direct evaluation over the materialized cross product.
	want := r.Zero()
	for _, a := range as {
		for _, b := range bs {
			want.AddInPlace(r.Lift([]int{0, 1, 2}, []float64{a.x0, a.x1, b.x2}))
		}
	}

	if !got.ApproxEqual(want, 1e-9) {
		t.Fatalf("ring product moments != materialized moments\n got %v\nwant %v", got, want)
	}
}

func TestCovarLiftSymmetry(t *testing.T) {
	r := CovarRing{N: 4}
	e := r.Lift([]int{1, 3}, []float64{2.5, -1})
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.N; j++ {
			if e.Q[i*r.N+j] != e.Q[j*r.N+i] {
				t.Fatalf("lifted Q not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if e.Count != 1 || e.Sum[1] != 2.5 || e.Sum[3] != -1 || e.Q[1*4+3] != -2.5 {
		t.Fatalf("lift wrong: %+v", e)
	}
}

func TestCovarInPlaceMatchesPure(t *testing.T) {
	r := CovarRing{N: 3}
	src := xrand.New(6)
	for i := 0; i < 50; i++ {
		a, b := randCovar(r, src), randCovar(r, src)
		sum := a.Clone()
		sum.AddInPlace(b)
		if !sum.ApproxEqual(r.Add(a, b), 0) {
			t.Fatal("AddInPlace != Add")
		}
		dst := r.Zero()
		r.MulInto(dst, a, b)
		if !dst.ApproxEqual(r.Mul(a, b), 0) {
			t.Fatal("MulInto != Mul")
		}
		if neg := r.Neg(dst); r.NegInto(dst, dst) != dst || !dst.ApproxEqual(neg, 0) {
			t.Fatal("NegInto in place != Neg")
		}
	}
}

func TestLiftIntoMatchesLift(t *testing.T) {
	r := CovarRing{N: 5}
	dst := r.Zero()
	dst.Count = 42 // garbage to be overwritten
	dst.Sum[0] = 9
	dst.Q[7] = 9
	r.LiftInto(dst, []int{0, 2}, []float64{1.5, -2})
	if !dst.ApproxEqual(r.Lift([]int{0, 2}, []float64{1.5, -2}), 0) {
		t.Fatal("LiftInto != Lift")
	}
}

func TestCovarCloneIndependent(t *testing.T) {
	r := CovarRing{N: 2}
	a := r.Lift([]int{0}, []float64{3})
	b := a.Clone()
	b.Sum[0] = 99
	if a.Sum[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestApproxEqualTolerance(t *testing.T) {
	r := CovarRing{N: 1}
	a, b := r.One(), r.One()
	b.Count += 1e-13
	if !a.ApproxEqual(b, 1e-9) {
		t.Fatal("tiny difference rejected")
	}
	b.Count += 1
	if a.ApproxEqual(b, 1e-9) {
		t.Fatal("large difference accepted")
	}
}

func TestCovarVarianceFromTriple(t *testing.T) {
	// Check that the triple reconstructs the textbook variance:
	// Var(x) = Q/c - (s/c)^2 for a single feature.
	r := CovarRing{N: 1}
	acc := r.Zero()
	xs := []float64{1, 2, 3, 4}
	for _, x := range xs {
		acc.AddInPlace(r.Lift([]int{0}, []float64{x}))
	}
	mean := acc.Sum[0] / acc.Count
	variance := acc.Q[0]/acc.Count - mean*mean
	if math.Abs(mean-2.5) > 1e-12 || math.Abs(variance-1.25) > 1e-12 {
		t.Fatalf("mean=%v variance=%v, want 2.5, 1.25", mean, variance)
	}
}

func BenchmarkCovarMul(b *testing.B) {
	for _, n := range []int{8, 32} {
		r := CovarRing{N: n}
		src := xrand.New(7)
		x, y := randCovar(r, src), randCovar(r, src)
		dst := r.Zero()
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.MulInto(dst, x, y)
			}
		})
		b.Run("neg_"+sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NegInto(dst, dst)
			}
		})
	}
}

func BenchmarkCovarLiftInto(b *testing.B) {
	r := CovarRing{N: 32}
	dst := r.Zero()
	idx := []int{0, 5, 9}
	vals := []float64{1, 2, 3}
	for i := 0; i < b.N; i++ {
		r.LiftInto(dst, idx, vals)
	}
}

func sizeName(n int) string {
	if n < 10 {
		return "n0" + string(rune('0'+n))
	}
	return "n" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}
