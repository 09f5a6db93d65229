package ring

import (
	"fmt"
	"math"
	"testing"

	"borg/internal/xrand"
)

// randBlock returns a random element over slots [lo, lo+k) of r: integer
// components, so every product and sum below is exact; non-negative sums
// and a count of either sign, as a retraction's delta has.
func randBlock(r CovarRing, src *xrand.Source, lo, k int) *Covar {
	e := &Covar{N: r.N}
	e.block(lo, k)
	e.Count = float64(src.Intn(7) - 3)
	for i := range e.Sum {
		e.Sum[i] = float64(src.Intn(4))
		for j := 0; j <= i; j++ {
			v := float64(src.Intn(7) - 3)
			e.Q[i*k+j], e.Q[j*k+i] = v, v
		}
	}
	return e
}

// dense copies e onto a full-support element, bit by bit: the slots off
// its block read +0, as dense storage held them.
func dense(e *Covar) *Covar {
	out := CovarRing{N: e.N}.Zero()
	out.Count = e.Count
	k := len(e.Sum)
	for i, v := range e.Sum {
		out.Sum[e.Lo+i] = v
		copy(out.Q[(e.Lo+i)*e.N+e.Lo:], e.Q[i*k:][:k])
	}
	return out
}

// mulDense is the Section 5.2 product over all N² cells of two dense
// elements: the only product rule before elements stored blocks, and
// the reference for the block rule.
func mulDense(a, b *Covar) *Covar {
	n := a.N
	dst := CovarRing{N: n}.Zero()
	dst.Count = a.Count * b.Count
	for i := range dst.Sum {
		dst.Sum[i] = b.Count*a.Sum[i] + a.Count*b.Sum[i]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst.Q[i*n+j] = b.Count*a.Q[i*n+j] + a.Count*b.Q[i*n+j] + a.Sum[i]*b.Sum[j] + b.Sum[i]*a.Sum[j]
		}
	}
	return dst
}

// sameBits reports the first component on which got, expanded to dense,
// and want differ in Float64bits; with plusZero want is compared after
// adding +0, which is the identity on every value but -0.
func sameBits(t *testing.T, what string, got, want *Covar, plusZero bool) {
	t.Helper()
	g := dense(got)
	cmp := func(name string, i int, x, y float64) {
		if plusZero {
			y += 0
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)\n got %v\nwant %v",
				what, name, i, x, math.Float64bits(x), y, math.Float64bits(y), got, want)
		}
	}
	if math.Float64bits(g.Count) != math.Float64bits(want.Count) { // one expression in every rule
		t.Fatalf("%s: Count = %v, want %v", what, g.Count, want.Count)
	}
	for i := range want.Sum {
		cmp("Sum", i, g.Sum[i], want.Sum[i])
	}
	for i := range want.Q {
		cmp("Q", i, g.Q[i], want.Q[i])
	}
}

// TestCovarBlockMulBitwiseDense certifies the block kernels against the
// dense rules they replaced, cell by cell in Float64bits, over random
// block shapes: adjacent, apart, nested and interleaved (overlapping
// hulls, which take the four-term rule), empty, in both operand orders,
// for N from 3 to 70 slots (more than a machine word of them). A block result
// equals the dense one after +0 is added to it — the kernels' c·v + 0 —
// and every product equals it outright unless both counts are negative:
// then the dense Sum rule adds two -0 terms on a slot neither operand
// covers, or where the block rule has one, and a zero sum comes out -0
// there and +0 here.
func TestCovarBlockMulBitwiseDense(t *testing.T) {
	src := xrand.New(20 + blockRuns) // -count=n draws n sets of shapes
	blockRuns++
	for _, n := range []int{3, 11, 70} {
		r := CovarRing{N: n}
		for trial := 0; trial < 300; trial++ {
			// Two blocks anywhere in [0, n), a third of them empty.
			pick := func() (lo, k int) {
				lo = src.Intn(n)
				if src.Intn(3) > 0 {
					k = 1 + src.Intn(min(n-lo, 9))
				}
				return lo, k
			}
			alo, ak := pick()
			blo, bk := pick()
			if trial%3 == 0 && ak > 0 && alo+ak < n { // adjacent, the maintenance shape
				blo, bk = alo+ak, 1+src.Intn(min(n-alo-ak, 9))
			}
			a, b := randBlock(r, src, alo, ak), randBlock(r, src, blo, bk)
			disjoint := ak == 0 || bk == 0 || alo+ak <= blo || blo+bk <= alo
			for _, ops := range [][2]*Covar{{a, b}, {b, a}} {
				x, y := ops[0], ops[1]
				got := r.MulInto(r.Zero(), x, y)
				want := mulDense(dense(x), dense(y))
				if lo, k := hull(x.Lo, len(x.Sum), y.Lo, len(y.Sum)); len(got.Sum) != k || (k > 0 && got.Lo != lo) {
					t.Fatalf("N=%d: product of [%d,+%d) and [%d,+%d) has block [%d,+%d)", n, x.Lo, len(x.Sum), y.Lo, len(y.Sum), got.Lo, len(got.Sum))
				}
				if disjoint {
					sameBits(t, "MulInto", got, want, true)
				}
				if x.Count >= 0 || y.Count >= 0 {
					sameBits(t, "MulInto (exact)", got, want, false)
				} else if !got.ApproxEqual(want, 0) {
					t.Fatalf("MulInto: got %v, want %v", got, want)
				}
			}

			// AddInPlace onto a Zero() accumulator, and onto an equal block.
			acc, ref := r.Zero(), r.Zero()
			acc.AddInPlace(a)
			da := dense(a)
			ref.Count += da.Count
			for i, v := range da.Sum {
				ref.Sum[i] += v
			}
			for i, v := range da.Q {
				ref.Q[i] += v
			}
			sameBits(t, "AddInPlace", acc, ref, false)
			twice := a.Clone()
			twice.AddInPlace(a)
			ref.AddInPlace(da)
			sameBits(t, "AddInPlace (same block)", twice, ref, false)

			// NegInto in place: 0 - v over the block, +0 off it.
			neg, want := a.Clone(), dense(a)
			if r.NegInto(neg, neg) != neg {
				t.Fatal("NegInto in place returned another element")
			}
			want.Count = -want.Count
			for i, v := range want.Sum {
				want.Sum[i] = -v
			}
			for i, v := range want.Q {
				want.Q[i] = -v
			}
			sameBits(t, "NegInto", neg, want, true)
		}
	}
}

// TestCovarAddMappedRenamesSlots: AddMapped is AddInPlace after a
// permutation of the feature slots, and AddInPlace itself for nil.
func TestCovarAddMappedRenamesSlots(t *testing.T) {
	r := CovarRing{N: 5}
	src := xrand.New(21)
	to := []int{3, 0, 4, 1, 2}
	b := randBlock(r, src, 1, 3)
	got := r.Zero()
	got.AddMapped(b, to)
	for i := 0; i < 3; i++ {
		if got.Sum[to[1+i]] != b.Sum[i] {
			t.Fatalf("Sum: slot %d did not land on %d", 1+i, to[1+i])
		}
		for j := 0; j < 3; j++ {
			if got.Q[to[1+i]*5+to[1+j]] != b.Q[i*3+j] {
				t.Fatalf("Q: cell (%d,%d) did not land on (%d,%d)", 1+i, 1+j, to[1+i], to[1+j])
			}
		}
	}
	plain, same := r.Zero(), r.Zero()
	plain.AddInPlace(b)
	same.AddMapped(b, nil)
	if got.Count != b.Count || !same.ApproxEqual(plain, 0) {
		t.Fatal("AddMapped: count or the nil map wrong")
	}
}

// addChain is what F-IVM added to its root before the fused product:
// the MulInto chain over es in order, NegInto for a retraction, then
// AddMapped.
func addChain(r CovarRing, dst *Covar, to []int, neg bool, es []*Covar) {
	p, tmp := es[0].Clone(), r.Zero()
	for _, e := range es[1:] {
		p, tmp = r.MulInto(tmp, p, e), p
	}
	if neg {
		p = r.NegInto(p, p)
	}
	dst.AddMapped(p, to)
}

// TestCovarAddProductMatchesChain holds the fused root product to the
// chain it replaced — MulInto factor by factor, NegInto, AddMapped —
// over random factor lists: one to five factors on adjacent blocks from
// a random first slot, some of them empty, counts of either sign and
// zero, both signs of the product, and a random renaming of the slots.
// On small integer components every partial product is exact, and the
// results must agree bit for bit, onto an accumulator already holding
// integers; on real-valued components each product cell is one term
// rounded in another order, and they agree to 1e-12 relative.
func TestCovarAddProductMatchesChain(t *testing.T) {
	src := xrand.New(40 + blockRuns) // -count=n draws n sets of shapes
	blockRuns++
	for trial := 0; trial < 2000; trial++ {
		reals := trial%2 == 1
		lo := src.Intn(3)
		es := make([]*Covar, 1+src.Intn(5))
		ks, end := make([]int, len(es)), lo
		for f := range es {
			if src.Intn(4) > 0 {
				ks[f] = 1 + src.Intn(4)
			}
			end += ks[f]
		}
		n := end + src.Intn(3)
		r := CovarRing{N: n}
		for f, next := range ks {
			es[f] = randBlock(r, src, lo, next)
			es[f].Count = float64(src.Intn(5) - 2)
			if reals {
				es[f].Count += src.Float64()
				for i := range es[f].Sum {
					es[f].Sum[i] = src.Float64()*4 - 2
					for j := 0; j <= i; j++ {
						v := src.Float64()*6 - 3
						es[f].Q[i*next+j], es[f].Q[j*next+i] = v, v
					}
				}
			}
			lo += next
		}
		to := src.Perm(n)
		neg := src.Intn(2) == 0
		got, want := r.Zero(), r.Zero()
		if !reals {
			acc := randBlock(r, src, 0, n)
			got.AddInPlace(acc)
			want.AddInPlace(acc)
		}
		r.AddProduct(got, to, neg, es)
		addChain(r, want, to, neg, es)
		if reals {
			if !got.ApproxEqual(want, 1e-12) {
				t.Fatalf("trial %d: fused %v, chain %v", trial, got, want)
			}
			continue
		}
		sameBits(t, fmt.Sprintf("trial %d (blocks %v, neg %v)", trial, ks, neg), got, want, false)
	}
}

// TestCovarViewElementFootprint pins what a stored view element costs:
// the clone of a 2-feature element of an N = 11 ring is two objects,
// the header and one array of 2 sums and 4 moments.
func TestCovarViewElementFootprint(t *testing.T) {
	r := CovarRing{N: 11}
	e := r.LiftInto(r.Zero(), []int{4, 5}, []float64{2, 3})
	c := e.Clone()
	if len(c.Sum)+len(c.Q) != 6 || cap(c.Sum) != 6 || c.Lo != 4 {
		t.Fatalf("clone stores %d sums and %d moments from slot %d (cap %d), want 2, 4 from 4 (6)", len(c.Sum), len(c.Q), c.Lo, cap(c.Sum))
	}
	if got := testing.AllocsPerRun(100, func() { ringSink = e.Clone() }); got != 2 {
		t.Fatalf("Clone allocates %v objects, want 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { ringSink = r.Zero() }); got != 2 {
		t.Fatalf("Zero allocates %v objects, want 2", got)
	}
}

var (
	ringSink  *Covar
	blockRuns uint64
)

// BenchmarkCovarMulDisjoint times the block product on the shapes of
// Retailer's maintenance path (N = 11): a tuple's lift against a child
// view, and the partial products against the wider views.
func BenchmarkCovarMulDisjoint(b *testing.B) {
	r := CovarRing{N: 11}
	src := xrand.New(8)
	for _, s := range []struct {
		name   string
		ak, bk int
	}{{"1x1", 1, 1}, {"2x7", 2, 7}, {"9x2", 9, 2}} {
		x, y := randBlock(r, src, 0, s.ak), randBlock(r, src, s.ak, s.bk)
		dst := r.Zero()
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.MulInto(dst, x, y)
			}
		})
	}
}

// BenchmarkCovarAddProduct times what a Retailer root tuple costs the
// result (N = 11, factors of 1, 7, 1 and 2 slots, a retraction): the
// fused product against the MulInto chain, NegInto and AddMapped it
// replaced.
func BenchmarkCovarAddProduct(b *testing.B) {
	r := CovarRing{N: 11}
	src := xrand.New(10)
	var es []*Covar // Inventory's lift, then the views of Stores, Item and Weather
	for _, blk := range [][2]int{{0, 1}, {1, 7}, {8, 1}, {9, 2}} {
		es = append(es, randBlock(r, src, blk[0], blk[1]))
	}
	to, dst, tmp := src.Perm(11), r.Zero(), [2]*Covar{r.Zero(), r.Zero()}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.AddProduct(dst, to, true, es)
		}
	})
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := r.MulInto(tmp[0], es[0], es[1])
			p = r.MulInto(tmp[1], p, es[2])
			p = r.MulInto(tmp[0], p, es[3])
			dst.AddMapped(r.NegInto(p, p), to)
		}
	})
}

// BenchmarkCovarAddInPlaceBlock times the view merge: a 2-feature delta
// into its stored view element, and a full-width one into the root.
func BenchmarkCovarAddInPlaceBlock(b *testing.B) {
	r := CovarRing{N: 11}
	src := xrand.New(9)
	for _, k := range []int{2, 11} {
		x, y := randBlock(r, src, 0, k), randBlock(r, src, 0, k)
		b.Run(sizeName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.AddInPlace(y)
			}
		})
	}
}
