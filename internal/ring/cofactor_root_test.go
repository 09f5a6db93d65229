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
	var g Covar
	for i := 0; i < e.NumGroups(); i++ {
		out = append(out, covarBits(e.At(i, &g))...)
	}
	return out
}

// covarBits flattens a triple into its block and raw float bits.
func covarBits(g *Covar) []uint64 {
	out := []uint64{uint64(g.Lo), uint64(len(g.Sum)), math.Float64bits(g.Count)}
	for _, v := range append(slices.Clone(g.Sum), g.Q...) {
		out = append(out, math.Float64bits(v))
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
// and folds at random points. Publications follow a serving writer: the
// epoch a publication supersedes is handed back to the next one unless
// a reader held it, so unread windows retire and recycle under the
// held ones. A held epoch is materialized when it is taken and again at
// the end, after every later append, fold and recycle, and both must be
// the accumulation at the time it was taken; so must epochs published
// and read only at the end. On integer data the running marginal is
// bitwise the key-order marginal of the accumulation. A second root, fed
// deltas of its own, publishes beside every publication, and the two
// epochs merge as a two-shard tier's do (MergeEpochs, this root's part
// first): bitwise CofactorRing.Add of the two accumulations, when
// published and, for an epoch a reader held, again at the end.
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
		src2, root2, acc2 := xrand.New(^seed), NewCofactorRoot(r, to), r.Zero()
		var deltas []*Cofactor
		type epoch struct {
			ep   CofactorEpoch
			want []uint64
			elem *Cofactor // materialized when taken; nil: read only at the end
			// ep2 is the second root's epoch published beside ep, never
			// handed back; merged the two merged when taken.
			ep2    CofactorEpoch
			merged []uint64
		}
		merge := func(e epoch) []uint64 { return elemBits(MergeEpochs([]CofactorEpoch{e.ep, e.ep2})) }
		var epochs []epoch
		// cur is the current epoch, held once a reader took it; free is
		// the superseded unread one, handed back at the next publication.
		var cur, free epoch
		var held bool
		publish := func() {
			ep := free.ep
			free = epoch{}
			root.Publish(&ep)
			if !held {
				free = cur
			}
			cur, held = epoch{ep: ep, want: elemBits(acc), merged: elemBits(r.Add(acc, acc2))}, false
			root2.Publish(&cur.ep2)
			if got := merge(cur); !slices.Equal(got, cur.merged) {
				t.Fatalf("to %v, real %v: merged epochs %v, want the sum %v", to, real, got, cur.merged)
			}
		}
		for s := 0; s < int(steps%2048); s++ {
			d := randRootDelta(r, src, real)
			if len(deltas) > 0 && src.Intn(3) == 0 {
				d = r.Neg(deltas[src.Intn(len(deltas))])
			}
			deltas = append(deltas, d)
			root.Add(d)
			acc.AddMapped(d, to)
			if src2.Intn(2) == 0 {
				d2 := randRootDelta(r, src2, real)
				if src2.Intn(3) == 0 {
					d2 = r.Neg(deltas[src2.Intn(len(deltas))])
				}
				root2.Add(d2)
				acc2.AddMapped(d2, to)
			}
			switch src.Intn(12) {
			case 0, 1, 2:
				publish()
			case 3:
				if cur.want != nil && !held {
					cur.elem, held = cur.ep.Element(), true
					epochs = append(epochs, cur)
				}
			case 4:
				var ep CofactorEpoch
				root.Publish(&ep)
				epochs = append(epochs, epoch{ep: ep, want: elemBits(acc)})
			case 5:
				root.fold()
			}
		}
		publish()
		epochs = append(epochs, cur)
		for k, e := range epochs {
			if e.elem != nil {
				if got := elemBits(e.elem); !slices.Equal(got, e.want) {
					t.Fatalf("epoch %d of %d (to %v, real %v): element materialized when held now reads %v, want %v", k, len(epochs), to, real, got, e.want)
				}
				if got := merge(e); !slices.Equal(got, e.merged) {
					t.Fatalf("epoch %d of %d (to %v, real %v): held epoch merged with its second root's now reads %v, want %v", k, len(epochs), to, real, got, e.merged)
				}
			}
			if got := elemBits(e.ep.Element()); !slices.Equal(got, e.want) {
				t.Fatalf("epoch %d of %d (to %v, real %v): materialized %v, want %v", k, len(epochs), to, real, got, e.want)
			}
		}
		if !real {
			var want Covar
			acc.MarginalInto(&want)
			if !slices.Equal(covarBits(root.Marginal()), covarBits(&want)) {
				t.Fatalf("running marginal %v, want the key-order marginal %v", root.Marginal(), &want)
			}
		}
	})
}

// TestCofactorRootRecyclesUnreadWindows: a root whose every epoch is
// handed back unread, one publication after it was superseded as a
// serving writer does, allocates nothing in steady state across at
// least ten folds — grow takes its chunks from retired windows and a
// fold writes into the base before last — and its epochs still read as
// in-place accumulation.
func TestCofactorRootRecyclesUnreadWindows(t *testing.T) {
	r := CofactorRing{N: 3, K: 2}
	src := xrand.New(7)
	deltas := make([]*Cofactor, 61)
	for i := range deltas {
		deltas[i] = randRootDelta(r, src, false)
	}
	root, acc := NewCofactorRoot(r, nil), r.Zero()
	var cur, free CofactorEpoch
	i, folds := 0, 0
	steps := func() {
		for k := 0; k < 1000; k++ {
			w := root.win
			root.Add(deltas[i%len(deltas)])
			acc.AddMapped(deltas[i%len(deltas)], nil)
			if root.win != w {
				folds++
			}
			if i++; i%8 == 0 {
				ep := free
				root.Publish(&ep)
				free, cur = cur, ep
			}
		}
	}
	steps()
	folds = 0
	if a := testing.AllocsPerRun(4, steps); a != 0 || folds < 10 {
		t.Fatalf("steady state allocates %.1f per 1000 deltas over %d folds, want 0 over at least 10", a, folds)
	}
	root.Publish(&free)
	if got, want := elemBits(free.Element()), elemBits(acc); !slices.Equal(got, want) {
		t.Fatalf("epoch after recycling materialized %v, want %v", got, want)
	}
}

// TestCofactorRootHeldWindowAllocs pins what a root allocates when a
// reader holds an epoch of every window, as a serving tier's zoo round
// does, so that no window is ever recycled: exactly one object per fresh
// log chunk, and a fixed number per fold whatever the group count — the
// new window, its base's keys and slab, and its chunk list.
func TestCofactorRootHeldWindowAllocs(t *testing.T) {
	r := CofactorRing{N: 4, K: 2}
	perFold := map[int]float64{}
	for _, groups := range []int{1000, 4000} {
		deltas := make([]*Cofactor, groups)
		for i := range deltas {
			deltas[i] = r.LiftCat([]int{0, 1}, []float64{2, float64(i % 7)}, []int{0, 1}, []int32{int32(i / 64), int32(i % 64)})
		}
		root := NewCofactorRoot(r, nil)
		var held []CofactorEpoch
		i, chunks, folds := 0, 0, 0
		steps := func() {
			chunks, folds = 0, 0
			for k := 0; k < 4*groups; k++ {
				w, before := root.win, len(root.win.chunks)
				root.Add(deltas[i%groups])
				i++
				if root.win == w {
					chunks += len(w.chunks) - before
					continue
				}
				chunks += len(w.chunks) - before
				folds++
				var ep CofactorEpoch
				root.Publish(&ep) // held: never handed back
				held = append(held[:0], ep)
			}
		}
		for k := 0; k < 3; k++ {
			steps()
		}
		held = slices.Grow(held, 1)
		a := testing.AllocsPerRun(1, steps)
		if folds < 3 || chunks < folds {
			t.Fatalf("%d groups: %d folds and %d chunks per run, want at least 3 and one a fold", groups, folds, chunks)
		}
		perFold[groups] = (a - float64(chunks)) / float64(folds)
		t.Logf("%d groups: %.0f allocations for %d fresh chunks and %d folds: %.2f a fold besides its chunks", groups, a, chunks, folds, perFold[groups])
		if a < float64(chunks) || perFold[groups] > 4 {
			t.Errorf("%d groups: %.0f allocations for %d fresh chunks and %d folds, want one a chunk and at most 4 a fold", groups, a, chunks, folds)
		}
	}
	if perFold[1000] != perFold[4000] {
		t.Errorf("a fold allocates %.2f objects besides its chunks at 1000 groups, %.2f at 4000: want the same", perFold[1000], perFold[4000])
	}
}

// TestMergeEpochsManyParts holds the merge of more parts than a machine
// word has bits to the pairwise CofactorRing.Add of the parts' elements
// in part order, as a tier of that many shards would sum them, bit for
// bit: keys shared by many parts, exact cancellations, integer and real
// values, a zero epoch among the parts, with and without a renaming.
func TestMergeEpochsManyParts(t *testing.T) {
	r := CofactorRing{N: 3, K: 2}
	for _, to := range [][]int{nil, {2, 0, 1}} {
		src := xrand.New(65)
		eps := make([]CofactorEpoch, 66)
		var want *Cofactor
		for p := range eps {
			if p == 1 {
				continue // a zero epoch: an empty part
			}
			root := NewCofactorRoot(r, to)
			var deltas []*Cofactor
			for s := 1 + src.Intn(300); s > 0; s-- {
				d := randRootDelta(r, src, p%3 == 0)
				if len(deltas) > 0 && src.Intn(4) == 0 {
					d = r.Neg(deltas[src.Intn(len(deltas))])
				}
				deltas = append(deltas, d)
				root.Add(d)
			}
			root.Publish(&eps[p])
			if e := eps[p].Element(); want == nil {
				want = e
			} else {
				want = r.Add(want, e)
			}
		}
		if got, want := elemBits(MergeEpochs(eps)), elemBits(want); !slices.Equal(got, want) {
			t.Fatalf("to %v: %d parts merged read %d words, want the pairwise sum's %d: %v, want %v", to, len(eps), len(got), len(want), got, want)
		}
	}
}
