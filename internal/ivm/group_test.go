package ivm

import (
	"slices"
	"testing"

	"borg/internal/testdb"
)

// groupOps is the grouped order as a specification, independent of any
// maintainer: one group per relation NAME in order of first appearance,
// op order kept within it, a cross-relation update a singleton where it
// stands. applySerialGrouped replays it; base.groupOps, which fills
// reused buffers keyed by node id, is checked against it below.
func groupOps(ops []Op) []opGroup {
	var groups []opGroup
	pos := make(map[string]int)
	for i := range ops {
		o := &ops[i]
		if o.Kind == OpUpdate && o.Old.Rel != o.Tuple.Rel {
			groups = append(groups, opGroup{serial: true, idx: []int{i}})
			continue
		}
		g, ok := pos[o.Tuple.Rel]
		if !ok {
			g = len(groups)
			pos[o.Tuple.Rel] = g
			groups = append(groups, opGroup{})
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

// TestGroupOpsMatchesSpecification: the buffer-reusing grouping yields
// the specified groups on mixed batches — long, short, long again, so
// that index lists grown by one call are refilled by the next — and a
// steady-state call allocates nothing. Ops of unknown relations are the
// one stated difference: they share a single group (every one of them
// fails in the mutate phase), which keeps their relative order.
func TestGroupOpsMatchesSpecification(t *testing.T) {
	db, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 3, FactRows: 300, DimRows: []int{9, 6}})
	m, err := NewFIVM(j, "Fact", cont)
	if err != nil {
		t.Fatal(err)
	}
	batches := batchesOf(streamOf(db, 5), 41)
	batches = append(batches, batches[0][:1], batches[1][:7], batches[0])
	for bi, ops := range batches {
		known := slices.DeleteFunc(slices.Clone(ops), func(o Op) bool {
			return m.byName[o.Tuple.Rel] == nil || (o.Kind == OpUpdate && m.byName[o.Old.Rel] == nil)
		})
		want, got := groupOps(known), m.groupOps(known)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d groups, want %d", bi, len(got), len(want))
		}
		for g := range want {
			if got[g].serial != want[g].serial || !slices.Equal(got[g].idx, want[g].idx) {
				t.Fatalf("batch %d group %d: %+v, want %+v", bi, g, got[g], want[g])
			}
		}
		var unknown []int
		for i, o := range ops {
			if m.byName[o.Tuple.Rel] == nil {
				unknown = append(unknown, i)
			}
		}
		stray := 0
		for _, g := range m.groupOps(ops) {
			if !g.serial && m.byName[ops[g.idx[0]].Tuple.Rel] == nil {
				stray++
				if !slices.Equal(g.idx, unknown) {
					t.Fatalf("batch %d: unknown-relation group %v, want %v", bi, g.idx, unknown)
				}
			}
		}
		if len(unknown) > 0 && stray != 1 {
			t.Fatalf("batch %d: %d unknown-relation groups, want 1", bi, stray)
		}
	}
	ops := batches[0]
	if a := testing.AllocsPerRun(50, func() { m.groupOps(ops) }); a != 0 {
		t.Fatalf("steady-state groupOps allocates %.1f per call, want 0", a)
	}
}
