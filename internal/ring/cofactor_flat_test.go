package ring

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"borg/internal/xrand"
)

// covarOracle is a cofactor element as the ring kept it before groups
// shared one slab: a map from key (big-endian words, so string order is
// key order) to a Covar of its own, each operation applied group by
// group with CovarRing's own kernels.
type covarOracle map[string]*Covar

func oracleKey(key []uint64) string {
	b := make([]byte, 0, 8*len(key))
	for _, w := range key {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return string(b)
}

func (o covarOracle) sorted() []string {
	return slices.Sorted(func(yield func(string) bool) {
		for k := range o {
			if !yield(k) {
				return
			}
		}
	})
}

// oracleOf reads a flat element into the map.
func oracleOfFlat(e *Cofactor) covarOracle {
	o := covarOracle{}
	var g Covar
	for i := 0; i < e.NumGroups(); i++ {
		o[oracleKey(e.key(i))] = e.At(i, &g).Clone()
	}
	return o
}

// addMapped folds src into o as the retired Cofactor.add did: a birth
// clones the group (or, renamed, adds it to a full-support zero), a
// group reaching exact zero is deleted.
func (o covarOracle) addMapped(n int, src covarOracle, to []int) {
	for _, k := range src.sorted() {
		g := src[k]
		cur, ok := o[k]
		switch {
		case !ok && to == nil:
			o[k] = g.Clone()
		case !ok:
			born := CovarRing{N: n}.Zero()
			born.AddMapped(g, to)
			o[k] = born
		default:
			cur.AddMapped(g, to)
			if cur.IsZero() {
				delete(o, k)
			}
		}
	}
}

// mul is the pair-order product: a-major, both ascending, each nonzero
// pair product folded into its merged key.
func (o covarOracle) mul(r CofactorRing, a, b covarOracle) covarOracle {
	out := covarOracle{}
	key := make([]uint64, keyWords(r.K))
	words := func(s string) []uint64 {
		w := make([]uint64, len(s)/8)
		for i := range w {
			w[i] = binary.BigEndian.Uint64([]byte(s[8*i:]))
		}
		return w
	}
	for _, ka := range a.sorted() {
		for _, kb := range b.sorted() {
			if !mergeCatKeys(key, words(ka), words(kb)) {
				continue
			}
			p := r.covar().MulInto(r.covar().Zero(), a[ka], b[kb])
			if p.IsZero() {
				continue
			}
			k := oracleKey(key)
			if cur, ok := out[k]; !ok {
				out[k] = p
			} else if cur.AddInPlace(p); cur.IsZero() {
				delete(out, k)
			}
		}
	}
	return out
}

// add is the sorted merge: one-sided groups copied, two-sided ones
// summed from a full-support zero and dropped on exact zero.
func (o covarOracle) add(n int, b covarOracle) covarOracle {
	out := covarOracle{}
	for k, g := range o {
		out[k] = g.Clone()
	}
	for k, g := range b {
		a, ok := out[k]
		if !ok {
			out[k] = g.Clone()
			continue
		}
		if s := (CovarRing{N: n}).Add(a, g); s.IsZero() {
			delete(out, k)
		} else {
			out[k] = s
		}
	}
	return out
}

func (o covarOracle) neg() covarOracle {
	out := covarOracle{}
	for k, g := range o {
		out[k] = CovarRing{N: g.N}.Neg(g)
	}
	return out
}

// flatSameBits reports whether e holds o's keys in order and, per group,
// o's count and every cell of e's block bitwise (a cell outside o's
// group's block reads +0).
func flatSameBits(e *Cofactor, o covarOracle) bool {
	keys := o.sorted()
	if e.NumGroups() != len(keys) {
		return false
	}
	var g Covar
	for i, k := range keys {
		e.At(i, &g)
		want := o[k]
		if oracleKey(e.key(i)) != k || math.Float64bits(g.Count) != math.Float64bits(want.Count) {
			return false
		}
		cell := func(s, t int) float64 { // want's cell (slot s, slot t); t < 0: the sum
			i, j, kw := s-want.Lo, t-want.Lo, len(want.Sum)
			switch {
			case i < 0 || i >= kw:
				return 0
			case t < 0:
				return want.Sum[i]
			case j < 0 || j >= kw:
				return 0
			}
			return want.Q[i*kw+j]
		}
		for a := range g.Sum {
			if math.Float64bits(g.Sum[a]) != math.Float64bits(cell(g.Lo+a, -1)) {
				return false
			}
			for b := range g.Sum {
				if math.Float64bits(g.Q[a*len(g.Sum)+b]) != math.Float64bits(cell(g.Lo+a, g.Lo+b)) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzCofactorFlatOps holds the ring operations on the flat element to
// the map-of-Covar oracle, bitwise: tuple lifts over two disjoint blocks
// (slots 0–1 binding slot 0 and sometimes slot 1, slot 2 sometimes
// binding slot 1, so distinct pairs merge onto one key), products into
// one recycled destination, their sums folded into an accumulator in
// place (with and without a slot renaming) with births, and exact
// cancellations by negated earlier products that prune groups mid-run,
// negation in place, clones held to the end while the accumulator moves
// on, and sorted-merge sums. Values are small integers, zeros included,
// so a lift's moments hold -0 too.
func FuzzCofactorFlatOps(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(0))
	f.Add(uint64(2), uint16(400), uint8(1))
	f.Add(uint64(3), uint16(300), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16, flags uint8) {
		src := xrand.New(seed)
		r := CofactorRing{N: 3, K: 2}
		var to []int
		if flags&1 != 0 {
			to = []int{2, 0, 1}
		}
		// side draws a sum of one to four lifts over slots 0–1 (a) or
		// slot 2 (b), with its oracle.
		side := func(a bool) (*Cofactor, covarOracle) {
			e, o := r.Zero(), covarOracle{}
			for n := 1 + src.Intn(4); n > 0; n-- {
				idx, catIdx, cats := []int{2}, []int{}, []int32{}
				if a {
					idx, catIdx, cats = []int{0, 1}, []int{0}, []int32{int32(src.Intn(3))}
				}
				if src.Intn(2) == 0 {
					catIdx, cats = append(catIdx, 1), append(cats, int32(src.Intn(2)))
				}
				vals := make([]float64, len(idx))
				for i := range vals {
					vals[i] = float64(src.Intn(5) - 2)
				}
				l := r.LiftCat(idx, vals, catIdx, cats)
				r.AddInPlace(e, l)
				o.addMapped(r.N, oracleOfFlat(l), nil)
			}
			return e, o
		}
		acc, oacc := r.Zero(), covarOracle{}
		dst := r.Zero()
		type kept struct {
			e *Cofactor
			o covarOracle
		}
		var products, clones []kept
		check := func(what string, e *Cofactor, o covarOracle) {
			t.Helper()
			if !flatSameBits(e, o) {
				t.Fatalf("%s (to %v): %d groups differ from the oracle's %d", what, to, e.NumGroups(), len(o))
			}
		}
		for s := 0; s < int(steps%1024); s++ {
			switch src.Intn(8) {
			case 0, 1, 2, 3:
				a, oa := side(true)
				b, ob := side(false)
				dst = r.MulInto(dst, a, b)
				op := covarOracle{}.mul(r, oa, ob)
				check("MulInto", dst, op)
				acc.AddMapped(dst, to)
				oacc.addMapped(r.N, op, to)
				products = append(products, kept{r.Clone(dst), op})
			case 4:
				if len(products) > 0 { // retract an earlier product: its groups cancel
					p := products[src.Intn(len(products))]
					neg := r.NegInto(r.Clone(p.e), p.e)
					neg = r.NegInto(neg, neg)
					neg = r.NegInto(neg, neg)
					check("NegInto", neg, p.o.neg())
					acc.AddMapped(neg, to)
					oacc.addMapped(r.N, p.o.neg(), to)
				}
			case 5:
				clones = append(clones, kept{r.Clone(acc), oracleOfFlat(acc)})
				check("Clone", clones[len(clones)-1].e, oacc)
			case 6:
				if to == nil {
					b, ob := side(true)
					check("Add", r.Add(acc, b), oacc.add(r.N, ob))
				}
			}
			check("the accumulator", acc, oacc)
		}
		for i, c := range clones {
			check(fmt.Sprintf("clone %d", i), c.e, c.o)
		}
	})
}
