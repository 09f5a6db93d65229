package ivm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"borg/internal/query"
	"borg/internal/ring"
	"borg/internal/testdb"
	"borg/internal/xrand"
)

// This file certifies the invariant live replanning relies on: the
// maintained result is a property of the JOIN, not of the variable
// order used to maintain it. Replan rebuilds a maintainer under a new
// greedy order and swaps it in place of the old one — that swap is only
// sound if every maintainer lands on identical statistics under any
// valid variable order of the same join: each strategy over the covar
// payload, and F-IVM over every payload.

// churnOp is one step of a deterministic churn schedule.
type churnOp struct {
	del bool
	tu  Tuple
}

// buildChurn interleaves deletes of random live tuples (~25% of steps)
// into the insert stream, all seeded — every maintainer replays the
// exact same op sequence.
func buildChurn(stream []Tuple, seed uint64) []churnOp {
	src := xrand.New(seed)
	var ops []churnOp
	var live []Tuple
	for _, tu := range stream {
		ops = append(ops, churnOp{tu: tu})
		live = append(live, tu)
		if len(live) > 0 && src.Intn(4) == 0 {
			i := src.Intn(len(live))
			ops = append(ops, churnOp{del: true, tu: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return ops
}

func eq9(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// sameCovar compares two covariance triples to 1e-9 relative tolerance.
func sameCovar(t *testing.T, label string, a, b *ring.Covar) {
	t.Helper()
	if !eq9(a.Count, b.Count) {
		t.Fatalf("%s: count %v vs %v", label, a.Count, b.Count)
	}
	for i := range a.Sum {
		if !eq9(a.Sum[i], b.Sum[i]) {
			t.Fatalf("%s: sum[%d] %v vs %v", label, i, a.Sum[i], b.Sum[i])
		}
	}
	for i := range a.Q {
		if !eq9(a.Q[i], b.Q[i]) {
			t.Fatalf("%s: Q[%d] %v vs %v", label, i, a.Q[i], b.Q[i])
		}
	}
}

// sameStats compares everything the payload maintains: the covariance
// triple always, the lifted degree-≤4 moments under PayloadPoly2, and
// the per-group triples under PayloadCofactor (F-IVM only).
func sameStats(t *testing.T, label string, a, b Maintainer, payload Payload) {
	t.Helper()
	sameCovar(t, label+"/covar", a.Snapshot(), b.Snapshot())
	if payload == PayloadPoly2 {
		la, lb := published(a.(*FIVM)).Lifted, published(b.(*FIVM)).Lifted
		if la == nil || lb == nil {
			t.Fatalf("%s: lifted snapshot nil (%v, %v)", label, la == nil, lb == nil)
		}
		for i := range la.M {
			if !eq9(la.M[i], lb.M[i]) {
				t.Fatalf("%s: lifted moment %d: %v vs %v", label, i, la.M[i], lb.M[i])
			}
		}
	}
	if payload == PayloadCofactor {
		ca, cb := a.(*FIVM).SnapshotCofactor(), b.(*FIVM).SnapshotCofactor()
		if ca == nil || cb == nil {
			t.Fatalf("%s: cofactor snapshot nil (%v, %v)", label, ca == nil, cb == nil)
		}
		// Groups with zero count may exist on one side only; every group
		// with weight must match its twin.
		keys := make(map[string][]int32)
		note := func(codes []int32, _ *ring.Covar) { keys[fmt.Sprint(codes)] = slices.Clone(codes) }
		ca.Each(note)
		cb.Each(note)
		for k, codes := range keys {
			ga, gb := ca.Group(codes), cb.Group(codes)
			switch {
			case ga == nil:
				if !eq9(gb.Count, 0) {
					t.Fatalf("%s: group %s only in B (count %v)", label, k, gb.Count)
				}
			case gb == nil:
				if !eq9(ga.Count, 0) {
					t.Fatalf("%s: group %s only in A (count %v)", label, k, ga.Count)
				}
			default:
				sameCovar(t, label+"/group", ga, gb)
			}
		}
	}
}

// TestVarOrderEquivalence maintains the same join under three different
// valid variable orders — the legacy static order rooted at the fact,
// a static order rooted at a dimension, and a greedily reordered tree
// (inverted cardinality hints, same root) — through a random churn
// schedule of inserts and deletes, for every strategy over the covar
// payload and for F-IVM over poly2 and cofactor. All three must agree to
// 1e-9 at several checkpoints and at the end.
func TestVarOrderEquivalence(t *testing.T) {
	db, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 57, FactRows: 150, DimRows: []int{8, 5}})
	ops := buildChurn(streamOf(db, 21), 22)

	// Cardinality hints inverted against reality: forces the greedy
	// planner to reorder children away from declaration order.
	inverted := map[string]int{"Fact": 2, "Dim0": 5000, "Dim1": 40}

	strategies := []struct {
		name string
		mk   func(j *query.Join, root string, feats []string, opts ...Option) (Maintainer, error)
	}{
		{"fivm", func(j *query.Join, root string, feats []string, opts ...Option) (Maintainer, error) {
			return NewFIVM(j, root, feats, opts...)
		}},
		{"higher", func(j *query.Join, root string, feats []string, opts ...Option) (Maintainer, error) {
			return NewHigherOrder(j, root, feats, opts...)
		}},
		{"first", func(j *query.Join, root string, feats []string, opts ...Option) (Maintainer, error) {
			return NewFirstOrder(j, root, feats, opts...)
		}},
	}
	payloads := []struct {
		name    string
		payload Payload
		feats   []string
	}{
		{"covar", PayloadCovar, cont},
		{"poly2", PayloadPoly2, cont[:2]}, // degree-4 moment space grows fast; two features keep it snappy
		{"cofactor", PayloadCofactor, append(append([]string{}, cont...), cat...)},
	}

	for _, st := range strategies {
		for _, pl := range payloads {
			if pl.payload != PayloadCovar && st.name != "fivm" {
				continue // the scalar strategies maintain covar only
			}
			st, pl := st, pl
			t.Run(st.name+"/"+pl.name, func(t *testing.T) {
				factRooted, err := st.mk(j, "Fact", pl.feats, WithPayload(pl.payload))
				if err != nil {
					t.Fatal(err)
				}
				dimRooted, err := st.mk(j, "Dim1", pl.feats, WithPayload(pl.payload))
				if err != nil {
					t.Fatal(err)
				}
				reordered, err := st.mk(j, "Fact", pl.feats, WithPayload(pl.payload), WithCardinalities(inverted))
				if err != nil {
					t.Fatal(err)
				}
				ms := []Maintainer{factRooted, dimRooted, reordered}
				labels := []string{"root=Fact", "root=Dim1", "greedy-reordered"}
				for step, op := range ops {
					for mi, m := range ms {
						var err error
						if op.del {
							err = m.Delete(op.tu)
						} else {
							err = m.Insert(op.tu)
						}
						if err != nil {
							t.Fatalf("step %d (%s): %v", step, labels[mi], err)
						}
					}
					if step%97 == 0 || step == len(ops)-1 {
						for mi := 1; mi < len(ms); mi++ {
							sameStats(t, labels[mi], ms[0], ms[mi], pl.payload)
						}
					}
				}
				if factRooted.Count() == 0 {
					t.Fatal("degenerate churn: join empty at the end")
				}
			})
		}
	}
}
