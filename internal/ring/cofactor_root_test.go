package ring

import (
	"math"
	"slices"
	"testing"

	"borg/internal/xrand"
)

// elemBits flattens an element into its keys and each group's block and
// raw float bits, in key order.
func elemBits(e *Cofactor) []uint64 {
	out := slices.Clone(e.keys)
	for _, g := range e.vals {
		out = append(out, uint64(g.Lo), uint64(len(g.Sum)), math.Float64bits(g.Count))
		for _, v := range append(slices.Clone(g.Sum), g.Q...) {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// randRootDelta draws a root delta over a small key set: one to three
// tuple lifts, each binding most slots to one of three codes and
// lifting a random block of features with integer or real values.
func randRootDelta(r CofactorRing, src *xrand.Source, real bool) *Cofactor {
	d := r.Zero()
	for t := 1 + src.Intn(3); t > 0; t-- {
		lo := src.Intn(r.N)
		idx := make([]int, 1+src.Intn(r.N-lo))
		vals := make([]float64, len(idx))
		for i := range idx {
			idx[i], vals[i] = lo+i, float64(src.Intn(7)-3)
			if real {
				vals[i] = src.NormFloat64() * 10
			}
		}
		var catIdx []int
		var cats []int32
		for s := 0; s < r.K; s++ {
			if src.Intn(6) > 0 {
				catIdx, cats = append(catIdx, s), append(cats, int32(src.Intn(3)))
			}
		}
		r.AddInPlace(d, r.LiftCat(idx, vals, catIdx, cats))
	}
	return d
}

// FuzzCofactorRootReplay holds every epoch a CofactorRoot publishes to
// in-place accumulation of the same deltas (Cofactor.AddMapped), bit for
// bit, groups and blocks alike: random deltas over a small key set,
// integer or real values, exact cancellations (the negation of an
// earlier delta), with and without a slot renaming, and publications
// and folds at random points. Every epoch is read only at the end, after
// every later append and fold. On integer data the running marginal is
// bitwise the key-order marginal of the accumulation.
func FuzzCofactorRootReplay(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(0))
	f.Add(uint64(2), uint16(900), uint8(1))
	f.Add(uint64(3), uint16(700), uint8(2))
	f.Add(uint64(4), uint16(1000), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16, flags uint8) {
		src := xrand.New(seed)
		r := CofactorRing{N: 3, K: 2}
		var to []int
		if flags&1 != 0 {
			to = []int{2, 0, 1}
		}
		real := flags&2 != 0
		root, acc := NewCofactorRoot(r, to), r.Zero()
		var deltas []*Cofactor
		type epoch struct {
			ep   CofactorEpoch
			want []uint64
		}
		var epochs []epoch
		for s := 0; s < int(steps%2048); s++ {
			d := randRootDelta(r, src, real)
			if len(deltas) > 0 && src.Intn(3) == 0 {
				d = r.Neg(deltas[src.Intn(len(deltas))])
			}
			deltas = append(deltas, d)
			root.Add(d)
			acc.AddMapped(d, to)
			switch src.Intn(12) {
			case 0:
				epochs = append(epochs, epoch{root.Publish(), elemBits(acc)})
			case 1:
				root.fold()
			}
		}
		epochs = append(epochs, epoch{root.Publish(), elemBits(acc)})
		for k, e := range epochs {
			if got := elemBits(e.ep.Element()); !slices.Equal(got, e.want) {
				t.Fatalf("epoch %d of %d (to %v, real %v): materialized %v, want %v", k, len(epochs), to, real, got, e.want)
			}
		}
		if !real {
			var want Covar
			acc.MarginalInto(&want)
			if !slices.Equal(elemBits(&Cofactor{vals: []*Covar{root.Marginal()}}), elemBits(&Cofactor{vals: []*Covar{&want}})) {
				t.Fatalf("running marginal %v, want the key-order marginal %v", root.Marginal(), &want)
			}
		}
	})
}
