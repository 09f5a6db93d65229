package ivm

import (
	"time"

	"borg/internal/relation"
)

// This file is F-IVM's batch ingest path; the Figure 4 baselines apply
// one tuple at a time. ApplyBatch computes the per-tuple deltas of up
// to batchPhase ops — the delta-join probes and ring lift/multiply
// evaluations, read-only against the phase-start state — and then
// applies all state mutation (row appends, swap-deletes, index updates,
// view writes) in a mutate phase — except a root tuple's product, which
// the mutate phase computes and adds to the result (viewTree.applyRoot).
// Both are plain loops on the calling goroutine (a phase is ~100 µs of
// work, less than fanning it out to a pool costs), and the driver
// allocates nothing of its own: a batch costs what its ops cost.
//
// Correctness rests on grouping: ops are stably grouped by relation,
// and groups run one after another. Within a same-relation group, a
// tuple's delta reads only OTHER relations' state — child views below
// it; parent rows, their edge index (built by the edge's first fan-out,
// node.childRows) and sibling views above it — while the group's
// mutations touch only its own relation's rows/indexes and the views
// on its leaf-to-root path. Reads and writes are therefore disjoint
// across the two phases, so every op in the group sees exactly the
// state a serial application of the grouped order would show it, and
// the mutate phase replays effects in op order with the same fixed
// reduction order the tuple-at-a-time path uses. A root tuple writes
// only the result, which nothing in its group reads, and reads child
// views no op of its group writes, so the same hook serves it in either
// path. The published result is bitwise-identical to serially applying
// the grouped order.
//
// Reordering ops of DIFFERENT relations is harmless: deltas of
// distinct relations commute under ring addition (exact, since ring
// addition is associative-commutative per component up to floating
//-point rounding; on integer-weighted data it is bitwise too), and
// delete targets are identified by value within their own relation, so
// a group permutation never changes which tuple a delete resolves to.

// OpKind selects what an Op does.
type OpKind uint8

const (
	// OpInsert inserts Op.Tuple.
	OpInsert OpKind = iota
	// OpDelete retracts one live tuple equal to Op.Tuple.
	OpDelete
	// OpUpdate retracts Op.Old and inserts Op.Tuple, atomically: no
	// published state ever shows neither or both. The update is strict —
	// when no live tuple matches Old, nothing is inserted.
	OpUpdate
)

// Op is one element of an ApplyBatch batch.
type Op struct {
	Kind OpKind
	// Tuple is the inserted tuple (OpInsert and the new half of
	// OpUpdate), or the retraction target (OpDelete).
	Tuple Tuple
	// Old is the tuple OpUpdate retracts before inserting Tuple.
	Old Tuple
}

// BatchResult reports what a batch application did. Failed ops (a
// delete with no live target, an unknown relation, an arity mismatch)
// do not stop the batch: the remaining ops still apply, matching what
// serial tuple-at-a-time application through a writer loop would do.
type BatchResult struct {
	// Inserts and Deletes count applied tuple halves (an update that
	// fully applies contributes one of each).
	Inserts uint64
	Deletes uint64
	// FullyFailed counts ops that changed nothing at all. An update
	// whose delete half applied but whose insert half failed is NOT
	// fully failed (it changed state) — it only surfaces through Err.
	FullyFailed int
	// Err is the first error encountered, nil when every op applied.
	Err error
	// DeltaNanos and MutateNanos split the batch's wall time into its
	// two phases: the read-only delta computation and the mutate replay
	// (row/index/view writes plus serial-singleton fallbacks). A root
	// tuple's product is mutate time: DeltaNanos covers the deltas that
	// climb from non-root nodes. Measured per phase — two clock reads
	// per ≤ batchPhase ops — so the serving layer can publish the phase
	// split without re-timing.
	DeltaNanos  int64
	MutateNanos int64
}

// record folds one op's outcome into the result.
//
//borg:noalloc
func (r *BatchResult) record(ins, del uint64, failed bool, err error) {
	r.Inserts += ins
	r.Deletes += del
	if failed {
		r.FullyFailed++
	}
	if err != nil && r.Err == nil {
		r.Err = err
	}
}

// batchPhase is the most ops one delta phase computes before its mutate
// phase replays them; a longer same-relation group runs as several
// phases. Which state a delta reads does not depend on the split — a
// group's mutations touch nothing its deltas read — so results do not
// either, and a tree's scratch (viewTree) is bounded by a constant
// instead of by the largest batch ever applied.
const batchPhase = 64

// opGroup is a maximal same-relation run of batch indexes (stable
// within the relation), or a serial singleton for ops the grouped
// two-phase path cannot prove independent (cross-relation updates).
type opGroup struct {
	serial bool
	idx    []int
}

// groupOps partitions a batch by relation, preserving op order within
// each relation; groups stand in order of their first op. Cross-relation
// updates become serial singletons. Ops naming no relation of the join
// share one group: each fails in the mutate phase, as it would one at a
// time. The groups and their index lists are b's, valid until the next
// call refills them.
//
//borg:noalloc
func (b *base) groupOps(ops []Op) []opGroup {
	groups := b.groups[:0]
	clear(b.groupOf)
	for i := range ops {
		o := &ops[i]
		serial := o.Kind == OpUpdate && o.Old.Rel != o.Tuple.Rel
		slot := len(b.nodes)
		if n, ok := b.byName[o.Tuple.Rel]; ok {
			slot = n.id
		}
		g := int(b.groupOf[slot]) - 1
		if serial || g < 0 {
			g = len(groups)
			if g < cap(groups) {
				groups = groups[:g+1] // with the index list an earlier call grew
			} else {
				groups = append(groups, opGroup{})
			}
			groups[g].serial, groups[g].idx = serial, groups[g].idx[:0]
			if !serial {
				b.groupOf[slot] = int32(g + 1)
			}
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	b.groups = groups
	return groups
}

// batcher is F-IVM's view tree together with its ApplyBatch driver,
// built once with the maintainer: the groups are the base's and a
// phase's effects live here. Each same-relation group runs in phases of
// at most batchPhase ops: the tree's scratch is reset (no effect of an
// earlier phase is pending), tupleEffects computes each tuple half's
// effects against phase-start state, then applyTuple replays them in
// op order beside the physical row mutation. Serial singleton groups go
// through m's own tuple-at-a-time methods.
type batcher[E any] struct {
	*base
	*viewTree[E]
	m    *FIVM
	effs [batchPhase]opEffects[E]
}

// apply is ApplyBatch: per group, phases of delta computation then
// mutation.
//
//borg:noalloc
func (bt *batcher[E]) apply(ops []Op) BatchResult {
	var res BatchResult
	for _, g := range bt.groupOps(ops) {
		if g.serial {
			start := time.Now()
			for _, i := range g.idx {
				res.record(serialApply(bt.m, &ops[i]))
			}
			res.MutateNanos += int64(time.Since(start))
			continue
		}
		for rest := g.idx; len(rest) > 0; {
			idx := rest[:min(batchPhase, len(rest))]
			rest = rest[len(idx):]
			start := time.Now()
			bt.scratch.reset()
			for i, oi := range idx {
				bt.effs[i] = bt.compute(&ops[oi])
			}
			mid := time.Now()
			for i, oi := range idx {
				res.record(bt.mutate(&ops[oi], &bt.effs[i]))
			}
			res.DeltaNanos += int64(mid.Sub(start))
			res.MutateNanos += int64(time.Since(mid))
		}
	}
	return res
}

// serialApply applies one op through the maintainer's tuple-at-a-time
// methods — the fallback for ops the grouped path cannot prove
// independent.
func serialApply(m Maintainer, op *Op) (ins, del uint64, failed bool, err error) {
	switch op.Kind {
	case OpInsert:
		if err = m.Insert(op.Tuple); err != nil {
			return 0, 0, true, err
		}
		return 1, 0, false, nil
	case OpDelete:
		if err = m.Delete(op.Tuple); err != nil {
			return 0, 0, true, err
		}
		return 0, 1, false, nil
	default: // OpUpdate
		if err = m.Delete(op.Old); err != nil {
			return 0, 0, true, err
		}
		if err = m.Insert(op.Tuple); err != nil {
			return 0, 1, false, err
		}
		return 1, 1, false, nil
	}
}

// opEffects is the per-op payload of the delta phase: the op's
// delete-half and insert-half effect lists, precomputed against the
// phase-start state.
type opEffects[E any] struct {
	del, ins []viewEffect[E]
}

// compute builds one op's effect halves with the tree's value-based
// delta computation. Unknown relations and arity mismatches yield empty
// effects; the mutate phase surfaces the error through append/locate
// exactly as the tuple-at-a-time path does.
func (bt *batcher[E]) compute(op *Op) opEffects[E] {
	var e opEffects[E]
	if op.Kind == OpDelete || op.Kind == OpUpdate {
		t := op.Tuple
		if op.Kind == OpUpdate {
			t = op.Old
		}
		if n := bt.checkTuple(t); n != nil {
			e.del = bt.tupleEffects(n, t.Values, true)
		}
	}
	if op.Kind == OpInsert || op.Kind == OpUpdate {
		if n := bt.checkTuple(op.Tuple); n != nil {
			e.ins = bt.tupleEffects(n, op.Tuple.Values, false)
		}
	}
	return e
}

// mutate is the mutate phase for one op: the physical row/index
// mutation plus the tree's write half (applyTuple). A delete whose
// target is not live fails without writing anything — identical to the
// serial path, where the delta is never computed.
func (bt *batcher[E]) mutate(op *Op, e *opEffects[E]) (ins, del uint64, failed bool, err error) {
	switch op.Kind {
	case OpInsert:
		n, _, err := bt.append(op.Tuple)
		if err != nil {
			return 0, 0, true, err
		}
		bt.applyTuple(n, op.Tuple.Values, false, e.ins)
		return 1, 0, false, nil
	case OpDelete:
		n, row, lerr := bt.locate(op.Tuple)
		if lerr != nil {
			return 0, 0, true, lerr
		}
		bt.removeRow(n, row)
		bt.applyTuple(n, op.Tuple.Values, true, e.del)
		return 0, 1, false, nil
	default: // OpUpdate: strict — a failed delete half inserts nothing.
		n, row, lerr := bt.locate(op.Old)
		if lerr != nil {
			return 0, 0, true, lerr
		}
		bt.removeRow(n, row)
		bt.applyTuple(n, op.Old.Values, true, e.del)
		if n, _, err = bt.append(op.Tuple); err != nil {
			return 0, 1, false, err
		}
		bt.applyTuple(n, op.Tuple.Values, false, e.ins)
		return 1, 1, false, nil
	}
}

// featValsOf appends the feature values owned by n in a value tuple to
// dst.
func (n *node) featValsOf(dst []float64, vals []relation.Value) []float64 {
	for _, c := range n.featCols {
		dst = append(dst, vals[c].F)
	}
	return dst
}

// catValsOf appends the categorical codes owned by n in a value tuple
// to dst, mirroring node.catVals for rows that are not (yet) stored.
func (n *node) catValsOf(dst []int32, vals []relation.Value) []int32 {
	for _, c := range n.catCols {
		dst = append(dst, vals[c].C)
	}
	return dst
}

// checkTuple resolves a tuple's node when the relation is known and the
// arity matches; otherwise nil (the serial apply phase will surface the
// error through append/locate, identically to the serial path).
func (b *base) checkTuple(t Tuple) *node {
	n, ok := b.byName[t.Rel]
	if !ok || len(t.Values) != n.rel.NumAttrs() {
		return nil
	}
	return n
}
