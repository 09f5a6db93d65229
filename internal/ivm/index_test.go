package ivm

import (
	"iter"
	"slices"
	"testing"

	"borg/internal/datagen"
	"borg/internal/relation"
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
		if g, w := slices.Sorted(chain(got, k)), slices.Sorted(chain(want, k)); !slices.Equal(g, w) {
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

// chain iterates k's row ids in chain order.
func chain(ix *relation.Index, k uint64) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for id := ix.First(k); id >= 0 && yield(id); id = ix.Next(id) {
		}
	}
}
