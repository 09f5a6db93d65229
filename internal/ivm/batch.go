package ivm

import (
	"slices"
	"time"

	"borg/internal/exec"
	"borg/internal/relation"
)

// This file is the batch-parallel ingest path shared by the three
// strategies: ApplyBatch partitions the per-tuple delta computation —
// the delta-join probes and ring Lift/Mul evaluations, which are
// read-only against the batch-start state — across the exec worker
// pool in morsels, then applies all state mutation (row appends,
// swap-deletes, index updates, view writes) in one short serial phase.
//
// Correctness rests on grouping: ops are stably grouped by relation,
// and groups run one after another. Within a same-relation group, a
// tuple's delta reads only OTHER relations' state — child views below
// it, parent rows and sibling views above it — while the group's
// mutations touch only its own relation's rows/indexes and the views
// on its leaf-to-root path. Reads and writes are therefore disjoint
// across the two phases, so every op in the group sees exactly the
// state a serial application of the grouped order would show it, and
// the serial mutate phase replays effects in op order with the same
// fixed reduction order the serial path uses. The published result is
// bitwise-identical to serially applying the grouped order.
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
	// two phases: the morsel-parallel delta computation (read-only
	// fan-out across the worker pool) and the serial mutate replay
	// (row/index/view writes plus serial-singleton fallbacks). Measured
	// per op group — a handful of clock reads per batch — so the
	// serving layer can publish the phase split without re-timing.
	DeltaNanos  int64
	MutateNanos int64
}

// batchMorselSize is the morsel the parallel delta phase carves op
// groups into. Ops are orders of magnitude more expensive than the
// row-scan work items exec.DefaultMorselSize is tuned for, so a small
// morsel keeps the pool balanced even at serving-layer batch sizes.
const batchMorselSize = 8

// batchPhase is the most ops one delta phase computes before its mutate
// phase replays them; a longer same-relation group runs as several
// phases. Which state a delta reads does not depend on the split — a
// group's mutations touch nothing its deltas read — so results do not
// either, and per-morsel scratch (viewTree) is bounded by a constant
// instead of by the largest batch ever applied.
const batchPhase = 8 * batchMorselSize

// opGroup is a maximal same-relation run of batch indexes (stable
// within the relation), or a serial singleton for ops the grouped
// two-phase path cannot prove independent (cross-relation updates).
type opGroup struct {
	serial bool
	idx    []int
}

// groupOps partitions a batch by relation, preserving op order within
// each relation. Cross-relation updates become serial singletons.
func groupOps(ops []Op) []opGroup {
	groups := make([]opGroup, 0, 4)
	pos := make(map[string]int, 4)
	for i := range ops {
		o := &ops[i]
		rel := o.Tuple.Rel
		if o.Kind == OpUpdate {
			if o.Old.Rel != o.Tuple.Rel {
				groups = append(groups, opGroup{serial: true, idx: []int{i}})
				continue
			}
			rel = o.Old.Rel
		}
		g, ok := pos[rel]
		if !ok {
			pos[rel] = len(groups)
			groups = append(groups, opGroup{idx: []int{i}})
			continue
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

// applyOps is the shared ApplyBatch driver, generic over the strategy's
// per-op effect payload EF. Each parallel group runs in phases of at
// most batchPhase ops: begin (when non-nil) announces that no effect of
// an earlier phase is pending, compute (read-only against phase-start
// state, told which morsel of the phase it runs in) fans out across the
// runtime's workers, then apply replays serially in op order. serialOp
// handles the singleton fallback groups with the strategy's own
// tuple-at-a-time methods.
func applyOps[EF any](b *base, ops []Op,
	begin func(),
	compute func(morsel int, op *Op) EF,
	apply func(op *Op, eff *EF) (ins, del uint64, failed bool, err error),
	serialOp func(op *Op) (ins, del uint64, failed bool, err error),
) BatchResult {
	var res BatchResult
	record := func(ins, del uint64, failed bool, err error) {
		res.Inserts += ins
		res.Deletes += del
		if failed {
			res.FullyFailed++
		}
		if err != nil && res.Err == nil {
			res.Err = err
		}
	}
	rt := exec.Runtime{Workers: b.rt.Workers, MorselSize: batchMorselSize, Pool: b.rt.Pool}
	var effs [batchPhase]EF
	for _, g := range groupOps(ops) {
		if g.serial {
			start := time.Now()
			for _, i := range g.idx {
				record(serialOp(&ops[i]))
			}
			res.MutateNanos += int64(time.Since(start))
			continue
		}
		for ; len(g.idx) > 0; g.idx = g.idx[min(batchPhase, len(g.idx)):] {
			idx := g.idx[:min(batchPhase, len(g.idx))]
			start := time.Now()
			if begin != nil {
				begin()
			}
			exec.Scan(rt, len(idx),
				func() struct{} { return struct{}{} },
				func(s struct{}, lo, hi int) struct{} {
					for i := lo; i < hi; i++ {
						effs[i] = compute(lo/batchMorselSize, &ops[idx[i]])
					}
					return s
				})
			mid := time.Now()
			for i, oi := range idx {
				record(apply(&ops[oi], &effs[i]))
			}
			res.DeltaNanos += int64(mid.Sub(start))
			res.MutateNanos += int64(time.Since(mid))
		}
	}
	return res
}

// serialApply applies one op through the strategy's tuple-at-a-time
// methods — the fallback for ops the grouped path cannot parallelize.
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

// opEffects is the per-op payload of the parallel phase: the op's
// delete-half and insert-half effect lists, precomputed against the
// group-start state.
type opEffects[EF any] struct {
	del, ins EF
}

// computeOpEffects builds one op's effect halves with the strategy's
// value-based delta computation. Unknown relations and arity
// mismatches yield empty effects; the serial phase surfaces the error
// through append/locate exactly as the tuple-at-a-time path does.
func computeOpEffects[EF any](b *base, morsel int, op *Op, tupleEffects func(morsel int, n *node, vals []relation.Value, neg bool) EF) opEffects[EF] {
	var e opEffects[EF]
	if op.Kind == OpDelete || op.Kind == OpUpdate {
		t := op.Tuple
		if op.Kind == OpUpdate {
			t = op.Old
		}
		if n := b.checkTuple(t); n != nil {
			e.del = tupleEffects(morsel, n, t.Values, true)
		}
	}
	if op.Kind == OpInsert || op.Kind == OpUpdate {
		if n := b.checkTuple(op.Tuple); n != nil {
			e.ins = tupleEffects(morsel, n, op.Tuple.Values, false)
		}
	}
	return e
}

// applyOpEffects is the serial mutate phase for one op: the physical
// row/index mutation plus the strategy's effect replay. A delete whose
// target is not live fails without replaying its precomputed effects —
// identical to the serial path, where the delta is never computed.
func applyOpEffects[EF any](b *base, op *Op, e *opEffects[EF], applyEffects func(EF)) (ins, del uint64, failed bool, err error) {
	switch op.Kind {
	case OpInsert:
		if _, _, err = b.append(op.Tuple); err != nil {
			return 0, 0, true, err
		}
		applyEffects(e.ins)
		return 1, 0, false, nil
	case OpDelete:
		n, row, lerr := b.locate(op.Tuple)
		if lerr != nil {
			return 0, 0, true, lerr
		}
		b.removeRow(n, row)
		applyEffects(e.del)
		return 0, 1, false, nil
	default: // OpUpdate: strict — a failed delete half inserts nothing.
		n, row, lerr := b.locate(op.Old)
		if lerr != nil {
			return 0, 0, true, lerr
		}
		b.removeRow(n, row)
		applyEffects(e.del)
		if _, _, err = b.append(op.Tuple); err != nil {
			return 0, 1, false, err
		}
		applyEffects(e.ins)
		return 1, 1, false, nil
	}
}

// scalarEffect is one pending write of the scalar strategies'
// propagation: merge delta into aggregate a's view at (n, key), or —
// with n nil — into the root result.
type scalarEffect struct {
	n     *node
	a     int32
	key   uint64
	delta float64
}

// sortedKeys returns m's keys in ascending order — the fixed reduction
// order that makes delta propagation deterministic (and so
// bitwise-reproducible across runs and worker counts) instead of
// following Go's randomized map iteration.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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

// localEvalVals is localEval against a value tuple instead of a stored
// row: the product of agg a's factors owned by node n.
func localEvalVals(n *node, vals []relation.Value, a aggDef) float64 {
	v := 1.0
	for k, fi := range n.featIdx {
		for t, f := range a.feats {
			if f != fi {
				continue
			}
			x := vals[n.featCols[k]].F
			for p := uint8(0); p < a.pows[t]; p++ {
				v *= x
			}
		}
	}
	return v
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
