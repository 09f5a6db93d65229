package ivm

import (
	"fmt"
	"math"
	"testing"

	"borg/internal/exec"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/testdb"
	"borg/internal/xrand"
)

// batchMaintainer is one strategy under test, behind an
// option-forwarding constructor.
type batchMaintainer struct {
	name string
	mk   func(opts ...Option) Maintainer
}

// batchMaintainers enumerates the three strategies over a given star
// join, plus the maintained feature count stateOf needs.
func batchMaintainers(spec testdb.StarSpec) ([]batchMaintainer, int) {
	_, j, cont, _ := testdb.RandomStar(spec)
	return []batchMaintainer{
		{"F-IVM", func(opts ...Option) Maintainer { m, _ := NewFIVM(j, "Fact", cont, opts...); return m }},
		{"higher-order", func(opts ...Option) Maintainer { m, _ := NewHigherOrder(j, "Fact", cont, opts...); return m }},
		{"first-order", func(opts ...Option) Maintainer { m, _ := NewFirstOrder(j, "Fact", cont, opts...); return m }},
	}, len(cont)
}

// batchesOf builds a deterministic batched op schedule over a stream:
// every batch inserts the next stream chunk, retracts and updates
// tuples that went live in EARLIER batches (so no op depends on another
// op of the same batch across relations — within a relation, grouping
// preserves order), and ends with ops that must fail (unknown relation,
// arity mismatch). One cross-relation update per batch exercises the
// serial-singleton fallback.
func batchesOf(stream []Tuple, seed uint64) [][]Op {
	src := xrand.New(seed)
	relVals := make(map[string][][]relation.Value)
	for _, t := range stream {
		relVals[t.Rel] = append(relVals[t.Rel], t.Values)
	}
	const chunk = 40
	var batches [][]Op
	var live []Tuple
	take := func() Tuple {
		j := src.Intn(len(live))
		t := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		return t
	}
	for start := 0; start < len(stream); start += chunk {
		end := min(start+chunk, len(stream))
		var ops []Op
		for _, t := range stream[start:end] {
			ops = append(ops, Op{Kind: OpInsert, Tuple: t})
		}
		for i := len(live) / 8; i > 0 && len(live) > 0; i-- {
			ops = append(ops, Op{Kind: OpDelete, Tuple: take()})
		}
		for i := len(live) / 10; i > 0 && len(live) > 0; i-- {
			old := take()
			cands := relVals[old.Rel]
			nt := Tuple{Rel: old.Rel, Values: cands[src.Intn(len(cands))]}
			ops = append(ops, Op{Kind: OpUpdate, Old: old, Tuple: nt})
			live = append(live, nt)
		}
		if len(live) > 0 {
			// Cross-relation update: retracts old, inserts into another
			// relation — the grouped path cannot prove it independent, so
			// it must flow through the serial-singleton fallback.
			old := take()
			for rel, cands := range relVals {
				if rel != old.Rel {
					ops = append(ops, Op{Kind: OpUpdate, Old: old,
						Tuple: Tuple{Rel: rel, Values: cands[src.Intn(len(cands))]}})
					live = append(live, ops[len(ops)-1].Tuple)
					break
				}
			}
		}
		ops = append(ops,
			Op{Kind: OpInsert, Tuple: Tuple{Rel: "NoSuchRel", Values: stream[0].Values}},
			Op{Kind: OpDelete, Tuple: Tuple{Rel: "NoSuchRel", Values: stream[0].Values}},
			Op{Kind: OpInsert, Tuple: Tuple{Rel: stream[0].Rel, Values: stream[0].Values[:1]}},
		)
		for _, t := range stream[start:end] {
			live = append(live, t)
		}
		batches = append(batches, ops)
	}
	return batches
}

// applySerialGrouped is the reference semantics ApplyBatch is certified
// against: the batch's grouped order applied tuple-at-a-time through
// the strategy's own Insert/Delete methods, with ApplyBatch's
// accounting.
func applySerialGrouped(m Maintainer, ops []Op) BatchResult {
	var res BatchResult
	for _, g := range groupOps(ops) {
		for _, i := range g.idx {
			ins, del, failed, err := serialApply(m, &ops[i])
			res.Inserts += ins
			res.Deletes += del
			if failed {
				res.FullyFailed++
			}
			if err != nil && res.Err == nil {
				res.Err = err
			}
		}
	}
	return res
}

// liftedStateOf reads the lifted payload as raw float bits (nil when
// the maintainer does not carry the lifted ring).
func liftedStateOf(m Maintainer) []uint64 {
	f, ok := m.(*FIVM)
	if !ok {
		return nil
	}
	p := published(f).Lifted
	if p == nil {
		return nil
	}
	out := make([]uint64, len(p.M))
	for i, v := range p.M {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestApplyBatchBitwiseEqualSerial is the equivalence certificate of
// the morsel-parallel batch path: for every strategy, plain, and for
// F-IVM also lifted, ApplyBatch at Workers 1, 2, and 8 must leave a maintained state
// BITWISE equal to serially applying the grouped order through the
// tuple-at-a-time Insert/Delete path, after every batch of a mixed
// insert/delete/update schedule that includes failing ops and
// cross-relation updates. Run under -race and -cpu 1,2,8 this also
// certifies the parallel delta phase as data-race-free.
func TestApplyBatchBitwiseEqualSerial(t *testing.T) {
	spec := testdb.StarSpec{Seed: 71, FactRows: 220, DimRows: []int{11, 6}}
	db, _, _, _ := testdb.RandomStar(spec)
	stream := streamOf(db, 29)
	batches := batchesOf(stream, 43)
	type rtSetter interface{ SetRuntime(exec.Runtime) }
	mks, nfeat := batchMaintainers(spec)
	for _, e := range mks {
		for _, lifted := range []bool{false, true} {
			if lifted && e.name != "F-IVM" {
				continue // the scalar strategies maintain covar only
			}
			var opts []Option
			if lifted {
				opts = append(opts, WithPayload(PayloadPoly2))
			}
			// Reference: the grouped order, tuple at a time, serial.
			ref := e.mk(opts...)
			refStates := make([][]uint64, len(batches))
			refLifted := make([][]uint64, len(batches))
			refResults := make([]BatchResult, len(batches))
			for bi, ops := range batches {
				refResults[bi] = applySerialGrouped(ref, ops)
				refStates[bi] = stateOf(ref, nfeat)
				refLifted[bi] = liftedStateOf(ref)
			}
			for _, w := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/lifted=%v/workers=%d", e.name, lifted, w), func(t *testing.T) {
					m := e.mk(opts...)
					m.(rtSetter).SetRuntime(exec.Runtime{Workers: w, MorselSize: 32})
					for bi, ops := range batches {
						res := m.ApplyBatch(ops)
						want := refResults[bi]
						if res.Inserts != want.Inserts || res.Deletes != want.Deletes || res.FullyFailed != want.FullyFailed {
							t.Fatalf("batch %d: result %+v, want %+v", bi, res, want)
						}
						if (res.Err == nil) != (want.Err == nil) {
							t.Fatalf("batch %d: err %v, want %v", bi, res.Err, want.Err)
						}
						if res.Err != nil && res.Err.Error() != want.Err.Error() {
							t.Fatalf("batch %d: err %q, want %q", bi, res.Err, want.Err)
						}
						got := stateOf(m, nfeat)
						for i := range refStates[bi] {
							if got[i] != refStates[bi][i] {
								t.Fatalf("batch %d: state word %d = %x, want %x", bi, i, got[i], refStates[bi][i])
							}
						}
						gotL := liftedStateOf(m)
						if len(gotL) != len(refLifted[bi]) {
							t.Fatalf("batch %d: lifted payload width %d, want %d", bi, len(gotL), len(refLifted[bi]))
						}
						for i := range refLifted[bi] {
							if gotL[i] != refLifted[bi][i] {
								t.Fatalf("batch %d: lifted word %d = %x, want %x", bi, i, gotL[i], refLifted[bi][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestApplyBatchApproxEqualOriginalOrder checks the semantic claim
// behind grouping: reordering ops of DIFFERENT relations only commutes
// ring additions, so the batch path's final statistics agree with a
// tuple-at-a-time replay in the ORIGINAL op order up to floating-point
// reassociation. (The schedule never makes an op depend on a same-batch
// op of another relation, so the op success pattern is order-invariant.)
func TestApplyBatchApproxEqualOriginalOrder(t *testing.T) {
	spec := testdb.StarSpec{Seed: 71, FactRows: 220, DimRows: []int{11, 6}}
	db, _, _, _ := testdb.RandomStar(spec)
	stream := streamOf(db, 29)
	batches := batchesOf(stream, 43)
	approx := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	mks, nfeat := batchMaintainers(spec)
	for _, e := range mks {
		m := e.mk()
		ref := e.mk()
		for _, ops := range batches {
			m.ApplyBatch(ops)
			for i := range ops {
				serialApply(ref, &ops[i])
			}
		}
		if !approx(m.Count(), ref.Count()) {
			t.Fatalf("%s: Count %v vs original-order %v", e.name, m.Count(), ref.Count())
		}
		for i := 0; i < nfeat; i++ {
			if !approx(m.Sum(i), ref.Sum(i)) {
				t.Fatalf("%s: Sum(%d) %v vs original-order %v", e.name, i, m.Sum(i), ref.Sum(i))
			}
			for j := 0; j < nfeat; j++ {
				if !approx(m.Moment(i, j), ref.Moment(i, j)) {
					t.Fatalf("%s: Moment(%d,%d) %v vs original-order %v", e.name, i, j, m.Moment(i, j), ref.Moment(i, j))
				}
			}
		}
	}
}

// TestSnapshotIntoZeroAlloc certifies the arena publication hot path:
// once the destination is sized, SnapshotInto must not allocate for any
// strategy, and F-IVM's PublishInto allocates its float backing only,
// for the covar and the poly2 payload alike.
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	spec := testdb.StarSpec{Seed: 13, FactRows: 80, DimRows: []int{7, 5}}
	db, _, _, _ := testdb.RandomStar(spec)
	stream := streamOf(db, 3)
	mks, _ := batchMaintainers(spec)
	for _, e := range mks {
		for _, lifted := range []bool{false, true} {
			if lifted && e.name != "F-IVM" {
				continue // the scalar strategies maintain covar only
			}
			var opts []Option
			if lifted {
				opts = append(opts, WithPayload(PayloadPoly2))
			}
			m := e.mk(opts...)
			for _, tu := range stream {
				if err := m.Insert(tu); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
			}
			var cov ring.Covar
			m.SnapshotInto(&cov)
			if a := testing.AllocsPerRun(100, func() { m.SnapshotInto(&cov) }); a != 0 {
				t.Errorf("%s lifted=%v: SnapshotInto allocates %.0f/op, want 0", e.name, lifted, a)
			}
			f, ok := m.(*FIVM)
			if !ok {
				continue
			}
			if got := published(f).Lifted != nil; got != lifted {
				t.Fatalf("%s: published Lifted non-nil = %v, want %v", e.name, got, lifted)
			}
			var p Published
			if a := testing.AllocsPerRun(100, func() { p = Published{}; f.PublishInto(&p) }); a != 1 {
				t.Errorf("%s lifted=%v: PublishInto allocates %.0f/op, want 1 (the float backing)", e.name, lifted, a)
			}
		}
	}
}
