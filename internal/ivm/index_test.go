package ivm

import (
	"slices"
	"testing"

	"borg/internal/datagen"
	"borg/internal/ring"
)

// TestChildIndexesBuiltOnFirstFanOut pins when F-IVM pays for a
// child-edge index: a preload that streams the dimensions before the
// fact table fans out over an empty root and builds no root edge index;
// the first Weather update builds the Weather edge and nothing else; the
// Inventory churn that follows maintains it as if it had always existed;
// and the tuple-at-a-time path builds it at the same op as the batch
// path, so the two end bitwise equal.
func TestChildIndexesBuiltOnFirstFanOut(t *testing.T) {
	d := datagen.Retailer(2020, 0.05)
	feats := append(append([]string(nil), d.Cont...), d.Response)
	batched := newChurn(t, d, feats, "", "Weather", "maxtemp", 1)
	serial := newChurn(t, d, feats, "", "Weather", "maxtemp", 1)
	root, weather := batched.m.nodes[0], batched.m.byName["Weather"].childPos
	built := func(when string) {
		t.Helper()
		for ci, ix := range root.childIndexes {
			if want := ci == weather && when != "after the preload"; (ix != nil) != want {
				t.Fatalf("%s: root edge to %s indexed = %v, want %v", when, root.children[ci].rel.Name, ix != nil, want)
			}
		}
	}
	feed := func(ops []Op) {
		batched.apply(t, ops)
		if res := applySerialGrouped(serial.m, ops); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	built("after the preload")
	feed(batched.batch(1, 1))
	built("after the first Weather update")
	for i := 0; i < 2000; i += 50 {
		feed(batched.batch(50, 0.02))
	}
	built("after the churn")

	inv, cols := root.rel, root.childKeyCols[weather]
	got, want := root.childIndexes[weather], inv.BuildIndex(cols)
	if got.Len() != want.Len() {
		t.Fatalf("Weather edge index has %d keys, BuildIndex over the live rows %d", got.Len(), want.Len())
	}
	for r := 0; r < inv.NumRows(); r++ {
		k := inv.Key(cols, r)
		if g, w := slices.Sorted(slices.Values(got.Rows(k))), slices.Sorted(slices.Values(want.Rows(k))); !slices.Equal(g, w) {
			t.Fatalf("key %x: rows %v, BuildIndex over the live rows %v", k, g, w)
		}
	}

	nfeat := len(batched.m.ContFeatures())
	if g, w := stateOf(batched.m, nfeat), stateOf(serial.m, nfeat); !slices.Equal(g, w) {
		t.Fatal("batched and tuple-at-a-time root triples differ")
	}
	serialViews := make(map[int]map[uint64]*ring.Covar)
	for n, v := range serial.m.cv.views {
		serialViews[n.id] = v
	}
	for n, v := range batched.m.cv.views {
		id, sv := n.id, serialViews[n.id]
		if len(v) != len(sv) {
			t.Fatalf("%s view: %d keys batched, %d tuple-at-a-time", batched.m.nodes[id].rel.Name, len(v), len(sv))
		}
		for k, e := range v {
			if s, ok := sv[k]; !ok || !slices.Equal(covarBits(e), covarBits(s)) {
				t.Fatalf("%s view, key %x: batched and tuple-at-a-time entries differ", batched.m.nodes[id].rel.Name, k)
			}
		}
	}
}

// FuzzRowLocator drives the row locator through the operations base
// puts it through — append, delete by value (locate, then swap-delete)
// and swap-delete by row id — against a naive multiset of the live
// values. Hashes take 4 values over 16 row values, so chains hold
// collisions and long runs of duplicates. After every step each chain
// must link consistently, hold only rows of its hash, and cover every
// live row exactly once, and a value must be locatable exactly when the
// multiset holds it.
func FuzzRowLocator(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 5, 1, 1, 2, 0, 1, 5, 2, 1})
	f.Add([]byte{0, 3, 0, 7, 0, 11, 0, 15, 1, 7, 2, 0, 1, 3, 1, 15})
	f.Fuzz(func(t *testing.T, prog []byte) {
		l := rowLocator{head: make(map[uint64]int32)}
		var vals []byte // live rows by id, as the relation holds them
		count := make(map[byte]int)
		hash := func(v byte) uint64 { return uint64(v % 4) }
		swapDelete := func(id int32) {
			last := int32(len(vals) - 1)
			count[vals[id]]--
			l.remove(hash(vals[id]), id)
			if id != last {
				l.repoint(hash(vals[last]), last, id)
			}
			vals[id] = vals[last]
			vals = vals[:last]
		}
		locate := func(v byte) int32 {
			id := l.first(hash(v))
			for id >= 0 && vals[id] != v {
				id = l.links[id].next
			}
			return id
		}
		for len(prog) >= 2 {
			op, arg := prog[0]%3, prog[1]
			prog = prog[2:]
			switch op {
			case 0: // append
				v := arg % 16
				vals = append(vals, v)
				count[v]++
				l.insert(hash(v))
			case 1: // delete by value
				if id := locate(arg % 16); id >= 0 {
					swapDelete(id)
				}
			case 2: // swap-delete by id
				if len(vals) > 0 {
					swapDelete(int32(int(arg) % len(vals)))
				}
			}

			if len(l.links) != len(vals) {
				t.Fatalf("%d links for %d rows", len(l.links), len(vals))
			}
			seen := make([]bool, len(vals))
			for h := range uint64(4) {
				prev := int32(-1)
				for id := l.first(h); id >= 0; prev, id = id, l.links[id].next {
					if seen[id] || hash(vals[id]) != h || l.links[id].prev != prev {
						t.Fatalf("chain %d: row %d (seen %v, value %d, prev %d, want %d)", h, id, seen[id], vals[id], l.links[id].prev, prev)
					}
					seen[id] = true
				}
			}
			if i := slices.Index(seen, false); i >= 0 {
				t.Fatalf("row %d is on no chain", i)
			}
			if len(l.head) > 4 {
				t.Fatalf("%d chain heads for 4 hashes", len(l.head))
			}
			for v := range byte(16) {
				if id := locate(v); (id >= 0) != (count[v] > 0) {
					t.Fatalf("value %d: located row %d, the oracle holds %d", v, id, count[v])
				}
			}
		}
	})
}
