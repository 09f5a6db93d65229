package ring

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"borg/internal/xrand"
)

// randCofactor builds a random cofactor element as a signed sum of
// tuple lifts with random partial slot bindings. Integer values keep
// every statistic exactly representable, so the axiom checks compare
// with (near-)exact equality; eager zero-pruning in AddInPlace/Mul
// keeps the sparse maps canonical, which ApproxEqual relies on.
func randCofactor(r CofactorRing, src *xrand.Source) *Cofactor {
	e := r.Zero()
	terms := 1 + src.Intn(4)
	for t := 0; t < terms; t++ {
		vals := make([]float64, r.N)
		idx := make([]int, r.N)
		for i := range vals {
			idx[i] = i
			vals[i] = float64(src.Intn(7) - 3)
		}
		var catIdx []int
		var cats []int32
		for s := 0; s < r.K; s++ {
			if src.Intn(3) > 0 { // bind each slot with probability 2/3
				catIdx = append(catIdx, s)
				cats = append(cats, int32(src.Intn(3)))
			}
		}
		term := r.LiftCat(idx, vals, catIdx, cats)
		if src.Intn(2) == 0 {
			term = r.Neg(term)
		}
		r.AddInPlace(e, term)
	}
	return e
}

func TestCofactorRingAxioms(t *testing.T) {
	r := CofactorRing{N: 2, K: 2}
	src := xrand.New(11)
	checkRingAxioms[*Cofactor](t, r, func() *Cofactor { return randCofactor(r, src) },
		func(a, b *Cofactor) bool { return a.ApproxEqual(b, 1e-9) })
}

func TestCofactorNegCancelsAndPrunes(t *testing.T) {
	r := CofactorRing{N: 3, K: 2}
	src := xrand.New(12)
	for i := 0; i < 100; i++ {
		a := randCofactor(r, src)
		sum := r.Clone(a)
		r.AddInPlace(sum, r.Neg(a))
		if !r.IsZero(sum) {
			t.Fatal("a + (-a) != 0")
		}
		if sum.NumGroups() != 0 {
			t.Fatalf("cancellation left %d zero groups unpruned", sum.NumGroups())
		}
	}
}

// TestCofactorIntoRecyclesDst checks the destination-passing forms
// against the allocating ones, bitwise, with ONE dst per form offered
// over and over (random operands: several groups, colliding and
// disagreeing keys, zero products), and that what was stored from an
// earlier result — a clone, or a sum it was folded into — does not move
// when dst is recycled.
func TestCofactorIntoRecyclesDst(t *testing.T) {
	r := CofactorRing{N: 2, K: 2}
	src := xrand.New(13)
	same := func(what string, got, want *Cofactor) {
		t.Helper()
		if !got.ApproxEqual(want, 0) {
			t.Fatalf("%s differs from the allocating form", what)
		}
	}
	mul, neg, lift := r.Zero(), r.Zero(), r.Zero()
	acc, accWant := r.Zero(), r.Zero()
	var kept, keptWant []*Cofactor
	for i := 0; i < 200; i++ {
		a, b := randCofactor(r, src), randCofactor(r, src)
		mul = r.MulInto(mul, a, b)
		same("MulInto", mul, r.Mul(a, b))
		neg = r.NegInto(neg, mul)
		same("NegInto", neg, r.Neg(mul))
		same("NegInto in place", r.NegInto(neg, neg), mul)
		vals, cats := []float64{float64(i % 5), float64(i % 3)}, []int32{int32(i % 4)}
		lift = r.LiftCatInto(lift, []int{0, 1}, vals, []int{1}, cats)
		same("LiftCatInto", lift, r.LiftCat([]int{0, 1}, vals, []int{1}, cats))
		kept, keptWant = append(kept, r.Clone(mul)), append(keptWant, r.Mul(a, b))
		r.AddInPlace(acc, mul)
		r.AddInPlace(accWant, r.Mul(a, b))
	}
	for i := range kept {
		same("a clone taken before dst was recycled", kept[i], keptWant[i])
	}
	same("a sum of recycled results", acc, accWant)

	// A sum holds nothing of its operands: recycling one as a dst
	// leaves the sum as it was.
	acc = r.Add(acc, r.Zero())
	snap, a := r.Add(acc, r.Zero()), randCofactor(r, src)
	same("NegInto of a shared element in place", r.NegInto(acc, acc), r.Neg(accWant))
	same("MulInto a shared dst", r.MulInto(acc, a, a), r.Mul(a, a))
	same("the snapshot", snap, accWant)
}

func TestCofactorMulDisagreeingSlotsIsZero(t *testing.T) {
	r := CofactorRing{N: 1, K: 1}
	a := r.LiftCat([]int{0}, []float64{2}, []int{0}, []int32{0})
	b := r.LiftCat([]int{0}, []float64{3}, []int{0}, []int32{1})
	if p := r.Mul(a, b); !r.IsZero(p) || p.NumGroups() != 0 {
		t.Fatalf("product of tuples disagreeing on a bound slot = %d groups, want zero", p.NumGroups())
	}
	// An unbound slot adopts the other side's binding.
	c := r.LiftInto(r.Zero(), []int{0}, []float64{5})
	p := r.Mul(a, c)
	g := p.Group([]int32{0})
	if g == nil || g.Count != 1 {
		t.Fatal("unbound slot did not adopt the bound side's code")
	}
}

func TestCofactorCloneIsDeep(t *testing.T) {
	r := CofactorRing{N: 2, K: 1}
	a := r.LiftCat([]int{0, 1}, []float64{1, 2}, []int{0}, []int32{7})
	c := r.Clone(a)
	r.AddInPlace(a, a) // double a in place
	if g := c.Group([]int32{7}); g == nil || g.Count != 1 {
		t.Fatal("Clone shares state with its source")
	}
}

// TestCofactorLiftComputesGroupedMoments is the semantic heart of the
// categorical ring: lifting each tuple of two relations and multiplying
// across the join must produce, per categorical group, exactly the
// covariance statistics of the joined rows in that group — with the
// marginal over groups equal to the plain covariance ring's result.
func TestCofactorLiftComputesGroupedMoments(t *testing.T) {
	// Feature space: continuous x0 and categorical g0 from relation A;
	// continuous x1 and categorical g1 from relation B. Cross join.
	r := CofactorRing{N: 2, K: 2}
	src := xrand.New(13)
	type rowA struct {
		x0 float64
		g0 int32
	}
	type rowB struct {
		x1 float64
		g1 int32
	}
	as := make([]rowA, 20)
	bs := make([]rowB, 15)
	for i := range as {
		as[i] = rowA{float64(src.Intn(9) - 4), int32(src.Intn(3))}
	}
	for i := range bs {
		bs[i] = rowB{float64(src.Intn(9) - 4), int32(src.Intn(2))}
	}

	// Factorized: (Σ lift(a)) * (Σ lift(b)).
	sa, sb := r.Zero(), r.Zero()
	for _, a := range as {
		r.AddInPlace(sa, r.LiftCat([]int{0}, []float64{a.x0}, []int{0}, []int32{a.g0}))
	}
	for _, b := range bs {
		r.AddInPlace(sb, r.LiftCat([]int{1}, []float64{b.x1}, []int{1}, []int32{b.g1}))
	}
	got := r.Mul(sa, sb)

	// Brute force per group over the materialized cross join.
	cr := CovarRing{N: 2}
	want := map[[2]int32]*Covar{}
	total := cr.Zero()
	for _, a := range as {
		for _, b := range bs {
			l := cr.Lift([]int{0, 1}, []float64{a.x0, b.x1})
			key := [2]int32{a.g0, b.g1}
			if want[key] == nil {
				want[key] = cr.Zero()
			}
			want[key].AddInPlace(l)
			total.AddInPlace(l)
		}
	}
	for key, w := range want {
		g := got.Group([]int32{key[0], key[1]})
		if g == nil {
			t.Fatalf("group %v missing from factorized result", key)
		}
		if !g.ApproxEqual(w, 1e-9) {
			t.Fatalf("group %v: factorized %v, brute force %v", key, g, w)
		}
	}
	if got.NumGroups() != len(want) {
		t.Fatalf("factorized result has %d groups, brute force %d", got.NumGroups(), len(want))
	}
	var marginal Covar
	got.MarginalInto(&marginal)
	if !marginal.ApproxEqual(total, 1e-9) {
		t.Fatal("Marginal over groups != plain covariance-ring result")
	}
}

func TestCofactorEachSortedAndDecoded(t *testing.T) {
	r := CofactorRing{N: 1, K: 2}
	e := r.Zero()
	r.AddInPlace(e, r.LiftCat([]int{0}, []float64{1}, []int{0, 1}, []int32{1, 0}))
	r.AddInPlace(e, r.LiftCat([]int{0}, []float64{2}, []int{0, 1}, []int32{0, 1}))
	r.AddInPlace(e, r.LiftCat([]int{0}, []float64{3}, []int{0}, []int32{0})) // slot 1 unbound
	var seen [][2]int32
	e.Each(func(codes []int32, g *Covar) {
		seen = append(seen, [2]int32{codes[0], codes[1]})
	})
	wantOrder := [][2]int32{{0, 1}, {0, -1}, {1, 0}} // packed unbound sorts after bound codes
	if len(seen) != len(wantOrder) {
		t.Fatalf("Each visited %d groups, want %d", len(seen), len(wantOrder))
	}
	for i := range seen {
		if seen[i] != wantOrder[i] {
			t.Fatalf("Each order[%d] = %v, want %v", i, seen[i], wantOrder[i])
		}
	}
}

// rootOf builds an accumulator holding one tuple in each of n fully
// bound groups (slot 0 = i/8, slot 1 = i%8), accumulated in place.
func rootOf(r CofactorRing, n int) *Cofactor {
	e := r.Zero()
	for i := 0; i < n; i++ {
		r.AddInPlace(e, r.LiftCat([]int{0}, []float64{float64(i)}, []int{0, 1}, []int32{int32(i / 8), int32(i % 8)}))
	}
	return e
}

// published returns e's value as a published element: one a
// CofactorRoot's epoch materializes.
func published(r CofactorRing, e *Cofactor) *Cofactor {
	root := NewCofactorRoot(r, nil)
	root.Add(e)
	var ep CofactorEpoch
	root.Publish(&ep)
	return ep.Element()
}

// TestCofactorAddCopiesEveryGroup: the sum of two published elements
// holds each group present on one side only bitwise as that side has it,
// the sum of each colliding one, and no storage of either operand, so
// writes to the operands or to the sum leave the others as they were.
func TestCofactorAddCopiesEveryGroup(t *testing.T) {
	r := CofactorRing{N: 1, K: 2}
	a, b := rootOf(r, 16), r.Zero()
	for i := 8; i < 24; i++ { // overlaps a on groups 8..15
		r.AddInPlace(b, r.LiftCat([]int{0}, []float64{1}, []int{0, 1}, []int32{int32(i / 8), int32(i % 8)}))
	}
	sa, sb := published(r, a), published(r, b)
	sum := r.Add(sa, sb)
	if sum.NumGroups() != 24 {
		t.Fatalf("sum has %d groups, want 24", sum.NumGroups())
	}
	var g, o Covar
	for i := 0; i < 24; i++ {
		sum.At(i, &g)
		switch {
		case i < 8 && !slices.Equal(covarBits(&g), covarBits(sa.At(i, &o))),
			i >= 16 && !slices.Equal(covarBits(&g), covarBits(sb.At(i-8, &o))):
			t.Fatalf("group %d lives on one side only but reads %v, not that side's %v", i, &g, &o)
		case i >= 8 && i < 16 && g.Count != 2:
			t.Fatalf("colliding group %d = %v", i, &g)
		}
	}
	want, wantA := r.Clone(sum), r.Clone(sa)
	r.AddInPlace(sa, sum) // operands and the sum itself move on
	r.AddInPlace(sum, sb)
	if !r.Add(wantA, sb).ApproxEqual(want, 0) || !r.Clone(sa).ApproxEqual(r.Add(wantA, want), 0) {
		t.Fatal("a sum and its operands share storage")
	}
}

// TestCatKeyNoAllocation pins the word keys: packing, merging, and a
// merge that binds nothing beyond one side write into their destination
// and allocate nothing.
func TestCatKeyNoAllocation(t *testing.T) {
	pack := func(idx []int, codes []int32) []uint64 { return packCatKey(make([]uint64, keyWords(3)), idx, codes) }
	idx, codes := []int{0, 2}, []int32{3, 4}
	a, b, full := pack([]int{0}, []int32{3}), pack([]int{1, 2}, []int32{5, 4}), pack([]int{0, 1, 2}, []int32{3, 5, 4})
	dst := make([]uint64, keyWords(3))
	for name, f := range map[string]func(){
		"pack":        func() { packCatKey(dst, idx, codes) },
		"merge":       func() { mergeCatKeys(dst, a, b) },
		"merge-sided": func() { mergeCatKeys(dst, full, a) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s allocates %.0f, want 0", name, got)
		}
	}
	if !mergeCatKeys(dst, a, b) || !slices.Equal(dst, full) {
		t.Fatalf("merge = %x, want %x", dst, full)
	}
}

// oraclePack and oracleMerge build the keys Cofactor held as strings
// before they became words: K big-endian uint32 slots laid end to end.
func oraclePack(k int, idx []int, codes []int32) string {
	b := make([]byte, 0, 4*k)
	for i := 0; i < k; i++ {
		b = binary.BigEndian.AppendUint32(b, unboundSlot)
	}
	for t, i := range idx {
		binary.BigEndian.PutUint32(b[4*i:], uint32(codes[t]))
	}
	return string(b)
}

func oracleMerge(a, b string) (string, bool) {
	out := make([]byte, 0, len(a))
	for i := 0; i < len(a); i += 4 {
		av, bv := binary.BigEndian.Uint32([]byte(a[i:])), binary.BigEndian.Uint32([]byte(b[i:]))
		switch {
		case av == bv, bv == unboundSlot:
		case av == unboundSlot:
			av = bv
		default:
			return "", false
		}
		out = binary.BigEndian.AppendUint32(out, av)
	}
	return string(out), true
}

// oracleOf is the string key of the same slots as a word key.
func oracleOf(k int, key []uint64) string {
	idx, codes := make([]int, k), make([]int32, k)
	for s := range idx {
		idx[s], codes[s] = s, int32(slotAt(key, s))
	}
	return oraclePack(k, idx, codes)
}

// FuzzCatKey holds the word keys to the string keys they replaced, on
// K = 1..6 with random bound slots and codes drawn to include 0 and
// math.MaxInt32: word order is string order, a merge agrees on ok and
// on the merged key, and Each and Group round-trip the codes.
func FuzzCatKey(f *testing.F) {
	f.Add(uint8(2), uint8(0b01), uint8(0b10), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(5), uint8(0b10101), uint8(0b11111), []byte{1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(3), uint8(0b111), uint8(0b011), []byte{6, 10, 14, 6, 10, 15, 255, 7})
	f.Fuzz(func(t *testing.T, kb, maskA, maskB uint8, raw []byte) {
		k := 1 + int(kb)%6
		code := func(i int) int32 {
			if i >= len(raw) {
				return 0
			}
			switch c := raw[i]; c % 4 {
			case 0:
				return 0
			case 1:
				return math.MaxInt32
			case 2:
				return int32(c >> 2) // small codes, so that bindings often agree
			default:
				return int32(c)<<23 | int32(c)
			}
		}
		side := func(mask uint8, from int) ([]int, []int32, []uint64, string) {
			var idx []int
			var codes []int32
			for s := 0; s < k; s++ {
				if mask>>s&1 == 1 {
					idx, codes = append(idx, s), append(codes, code(from+s))
				}
			}
			return idx, codes, packCatKey(make([]uint64, keyWords(k)), idx, codes), oraclePack(k, idx, codes)
		}
		ia, ca, wa, sa := side(maskA, 0)
		ib, cb, wb, sb := side(maskB, 6)
		if oracleOf(k, wa) != sa || oracleOf(k, wb) != sb {
			t.Fatalf("K=%d: packed slots %x / %x, want %x / %x", k, wa, wb, sa, sb)
		}
		if got, want := slices.Compare(wa, wb), strings.Compare(sa, sb); got != want {
			t.Fatalf("K=%d: word order %d, string order %d (%x vs %x)", k, got, want, sa, sb)
		}
		merged := make([]uint64, keyWords(k))
		ok := mergeCatKeys(merged, wa, wb)
		want, wantOK := oracleMerge(sa, sb)
		if ok != wantOK || ok && oracleOf(k, merged) != want {
			t.Fatalf("K=%d: merge %x/%x = %x %v, want %x %v", k, sa, sb, merged, ok, want, wantOK)
		}
		if ok && k%2 == 1 && uint32(merged[len(merged)-1]) != unboundSlot {
			t.Fatalf("K=%d: merge bound the padding half: %x", k, merged)
		}

		r := CofactorRing{N: 1, K: k}
		e := r.LiftCat([]int{0}, []float64{1}, ia, ca)
		r.AddInPlace(e, r.LiftCat([]int{0}, []float64{2}, ib, cb))
		var order []string
		e.Each(func(codes []int32, g *Covar) {
			idx := make([]int, k)
			for s := range idx {
				idx[s] = s
			}
			order = append(order, oraclePack(k, idx, codes))
			if gg := e.Group(codes); gg == nil || !slices.Equal(covarBits(gg), covarBits(g)) {
				t.Fatalf("K=%d: Group(%v) is not the group Each visited", k, codes)
			}
		})
		wantOrder := slices.Compact(slices.Sorted(slices.Values([]string{sa, sb})))
		if !slices.Equal(order, wantOrder) {
			t.Fatalf("K=%d: Each decoded %x, want %x", k, order, wantOrder)
		}
	})
}
