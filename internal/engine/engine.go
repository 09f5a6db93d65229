// Package engine is the classical, structure-agnostic query engine: it
// materializes the feature-extraction join with binary hash joins and
// evaluates each aggregate of a batch with its own scan over the
// materialized data matrix.
//
// This is deliberately the architecture the paper attributes to
// PostgreSQL-class systems (Section 1.2, Figure 4 left): no sharing
// across the aggregates of a batch, no aggregate pushdown past joins, and
// a join result that is typically an order of magnitude *larger* than the
// input database. It serves three roles in this repository: the baseline
// of the Figure 3 and Figure 4 experiments, the materialization step of
// the structure-agnostic pipeline (internal/agnostic), and the ground
// truth that LMFAO's factorized results are tested against.
package engine

import (
	"fmt"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
)

// MaterializeJoin computes the natural join of j's relations with a
// left-deep sequence of binary hash joins, in the order the relations are
// listed. The output relation shares the input dictionaries.
func MaterializeJoin(j *query.Join) (*relation.Relation, error) {
	if len(j.Relations) == 0 {
		return nil, fmt.Errorf("engine: empty join")
	}
	acc := j.Relations[0]
	owned := false // acc aliases the input until the first real join
	for _, next := range j.Relations[1:] {
		joined, err := hashJoin(acc, next)
		if err != nil {
			return nil, err
		}
		acc = joined
		owned = true
	}
	if !owned {
		// Single-relation "join": copy so callers may mutate freely.
		out := acc.CloneEmpty()
		for i := 0; i < acc.NumRows(); i++ {
			out.AppendRowFrom(acc, i)
		}
		return out, nil
	}
	return acc, nil
}

// hashJoin joins l and r on their shared attribute names (which must be
// categorical), building the hash table on the smaller input.
func hashJoin(l, r *relation.Relation) (*relation.Relation, error) {
	var sharedL, sharedR []int
	var rExtra []int
	for ri, a := range r.Attrs() {
		if li := l.AttrIndex(a.Name); li >= 0 {
			if a.Type != relation.Category {
				return nil, fmt.Errorf("engine: join attribute %s is not categorical", a.Name)
			}
			sharedL = append(sharedL, li)
			sharedR = append(sharedR, ri)
		} else {
			rExtra = append(rExtra, ri)
		}
	}
	if len(sharedL) > 2 {
		return nil, fmt.Errorf("engine: join between %s and %s on %d attributes; at most 2 supported", l.Name, r.Name, len(sharedL))
	}

	// Output schema: all of l, then r's non-shared attributes, sharing
	// dictionaries with the inputs.
	attrs := append([]relation.Attribute(nil), l.Attrs()...)
	for _, ri := range rExtra {
		attrs = append(attrs, r.Attrs()[ri])
	}
	out := relation.New(l.Name+"⋈"+r.Name, attrs)
	for i := range l.Attrs() {
		if c := l.Col(i); c.Type == relation.Category {
			out.Col(i).Dict = c.Dict
		}
	}
	for k, ri := range rExtra {
		if c := r.Col(ri); c.Type == relation.Category {
			out.Col(len(l.Attrs()) + k).Dict = c.Dict
		}
	}

	// Build on r (dimension tables are small in our workloads; when they
	// are not, probing direction only affects constants, not output).
	ix := r.BuildIndex(sharedR)
	lKey := l.KeyFunc(sharedL)
	nl := l.NumAttrs()
	for i := 0; i < l.NumRows(); i++ {
		for m := ix.First(lKey(i)); m >= 0; m = ix.Next(m) {
			row := out.Grow(1)
			for c := 0; c < nl; c++ {
				col := out.Col(c)
				if col.Type == relation.Category {
					col.C[row] = l.Cat(c, i)
				} else {
					col.F[row] = l.Float(c, i)
				}
			}
			for k, ri := range rExtra {
				col := out.Col(nl + k)
				if col.Type == relation.Category {
					col.C[row] = r.Cat(ri, int(m))
				} else {
					col.F[row] = r.Float(ri, int(m))
				}
			}
		}
	}
	return out, nil
}

// EvalAggregateRT computes one aggregate over the data matrix through
// the shared exec kernels: a scalar-sum kernel for ungrouped aggregates,
// a grouped-sum kernel keyed by packed uint64 codes for up to two
// group-by attributes (the common case of every paper batch), and the
// generic wide-key kernel beyond that. The scan is morselized and
// scheduled by rt.
func EvalAggregateRT(rt exec.Runtime, data *relation.Relation, spec *query.AggSpec) (*query.AggResult, error) {
	factorCols := make([]int, len(spec.Factors))
	for i, f := range spec.Factors {
		factorCols[i] = data.AttrIndex(f.Attr)
		if factorCols[i] < 0 {
			return nil, fmt.Errorf("engine: aggregate %s: attribute %s not in data matrix", spec.ID, f.Attr)
		}
	}
	filterCols := make([]int, len(spec.Filters))
	for i, f := range spec.Filters {
		filterCols[i] = data.AttrIndex(f.Attr)
		if filterCols[i] < 0 {
			return nil, fmt.Errorf("engine: aggregate %s: filter attribute %s not in data matrix", spec.ID, f.Attr)
		}
	}
	groupCols := make([]int, len(spec.GroupBy))
	for i, g := range spec.GroupBy {
		groupCols[i] = data.AttrIndex(g)
		if groupCols[i] < 0 {
			return nil, fmt.Errorf("engine: aggregate %s: group-by attribute %s not in data matrix", spec.ID, g)
		}
	}

	val := rowVal(data, spec, factorCols, filterCols)
	n := data.NumRows()
	res := &query.AggResult{Spec: spec}
	switch {
	case len(groupCols) == 0:
		res.Scalar = exec.Sum(rt, n, val)
	case len(groupCols) <= 2:
		table := exec.GroupedSum(rt, n, data.KeyFunc(groupCols), val)
		res.Groups = make(map[query.GroupKey]float64, len(table))
		if len(groupCols) == 1 {
			for k, v := range table {
				res.Groups[query.MakeGroupKey(int32(uint32(k)))] = v
			}
		} else {
			for k, v := range table {
				a, b := relation.UnpackKey2(k)
				res.Groups[query.MakeGroupKey(a, b)] = v
			}
		}
	default:
		res.Groups = exec.GroupedSum(rt, n, func(row int) query.GroupKey {
			k := query.NoGroup
			for i, c := range groupCols {
				k[i] = data.Cat(c, row)
			}
			return k
		}, val)
		if res.Groups == nil { // empty scan: grouped results stay non-nil
			res.Groups = make(map[query.GroupKey]float64)
		}
	}
	return res, nil
}

// rowVal compiles the spec's filters and factor product into a kernel
// row evaluator over the data matrix.
func rowVal(data *relation.Relation, spec *query.AggSpec, factorCols, filterCols []int) exec.RowVal {
	return func(row int) (float64, bool) {
		for i := range spec.Filters {
			if !spec.Filters[i].Eval(data, filterCols[i], row) {
				return 0, false
			}
		}
		v := 1.0
		for i, f := range spec.Factors {
			x := data.Float(factorCols[i], row)
			for p := 0; p < f.Power; p++ {
				v *= x
			}
		}
		return v, true
	}
}

// EvalBatch evaluates each aggregate of the batch with its own serial
// scan — the no-sharing execution the classical systems of Figure 4
// (left) use.
func EvalBatch(data *relation.Relation, specs []query.AggSpec) ([]*query.AggResult, error) {
	return EvalBatchRT(exec.Serial(), data, specs)
}

// EvalBatchRT evaluates each aggregate with its own morsel-scheduled
// scan. The scans stay one-per-aggregate (no sharing — that is the
// architectural point of this baseline); rt only parallelizes each scan
// internally.
func EvalBatchRT(rt exec.Runtime, data *relation.Relation, specs []query.AggSpec) ([]*query.AggResult, error) {
	out := make([]*query.AggResult, len(specs))
	for i := range specs {
		r, err := EvalAggregateRT(rt, data, &specs[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// MaterializeAndEval is the end-to-end classical path: materialize the
// join, then evaluate the batch aggregate by aggregate.
func MaterializeAndEval(j *query.Join, specs []query.AggSpec) ([]*query.AggResult, error) {
	data, err := MaterializeJoin(j)
	if err != nil {
		return nil, err
	}
	return EvalBatch(data, specs)
}
