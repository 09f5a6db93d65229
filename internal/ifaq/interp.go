package ifaq

import (
	"fmt"

	"borg/internal/relation"
)

// Value is a runtime value of the IFAQ interpreter: float64, *Rec,
// *Dict, or *Row.
type Value interface{}

// Rec is a record value with by-name and by-index access.
type Rec struct {
	Names []string
	Vals  []Value
	idx   map[string]int
}

// NewRec builds a record value.
func NewRec(names []string, vals []Value) *Rec {
	r := &Rec{Names: names, Vals: vals, idx: make(map[string]int, len(names))}
	for i, n := range names {
		r.idx[n] = i
	}
	return r
}

// Get returns the named field.
func (r *Rec) Get(name string) (Value, bool) {
	i, ok := r.idx[name]
	if !ok {
		return nil, false
	}
	return r.Vals[i], true
}

// Dict is a float-keyed dictionary value (join keys are categorical codes
// widened to float64).
type Dict struct {
	M map[float64]Value
}

// Row is a cursor into a relation; field access reads the row's columns
// (categorical codes widen to float64).
type Row struct {
	Rel *relation.Relation
	I   int
}

// Env carries the interpreter's bindings and the registered relations.
type Env struct {
	rels map[string]*relation.Relation
	vars map[string]Value
}

// NewEnv returns an environment with the given relations registered.
func NewEnv(rels map[string]*relation.Relation) *Env {
	return &Env{rels: rels, vars: make(map[string]Value)}
}

// Eval interprets e under env.
func Eval(e Expr, env *Env) (Value, error) {
	switch n := e.(type) {
	case *Const:
		return n.V, nil
	case *Var:
		v, ok := env.vars[n.Name]
		if !ok {
			return nil, fmt.Errorf("ifaq: unbound variable %s", n.Name)
		}
		return v, nil
	case *Field:
		rec, err := Eval(n.Rec, env)
		if err != nil {
			return nil, err
		}
		return fieldOf(rec, n.Name)
	case *Slot:
		rec, err := Eval(n.Rec, env)
		if err != nil {
			return nil, err
		}
		return slotOf(rec, n.Idx, n.Name)
	case *Bin:
		l, err := Eval(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return nil, err
		}
		lf, ok1 := l.(float64)
		rf, ok2 := r.(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ifaq: %c on non-floats (%T, %T)", n.Op, l, r)
		}
		switch n.Op {
		case '+':
			return lf + rf, nil
		case '-':
			return lf - rf, nil
		case '*':
			return lf * rf, nil
		}
		return nil, fmt.Errorf("ifaq: unknown operator %c", n.Op)
	case *Let:
		v, err := Eval(n.Val, env)
		if err != nil {
			return nil, err
		}
		old, had := env.vars[n.Name]
		env.vars[n.Name] = v
		out, err := Eval(n.Body, env)
		if had {
			env.vars[n.Name] = old
		} else {
			delete(env.vars, n.Name)
		}
		return out, err
	case *RecLit:
		vals := make([]Value, len(n.Vals))
		for i, ve := range n.Vals {
			v, err := Eval(ve, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return NewRec(n.Names, vals), nil
	case *SumRows:
		rel, ok := env.rels[n.Rel]
		if !ok {
			return nil, fmt.Errorf("ifaq: unknown relation %s", n.Rel)
		}
		var acc Value
		old, had := env.vars[n.Var]
		row := &Row{Rel: rel}
		env.vars[n.Var] = row
		for i := 0; i < rel.NumRows(); i++ {
			row.I = i
			v, err := Eval(n.Body, env)
			if err != nil {
				return nil, err
			}
			acc, err = accumulate(acc, v)
			if err != nil {
				return nil, err
			}
		}
		if had {
			env.vars[n.Var] = old
		} else {
			delete(env.vars, n.Var)
		}
		if acc == nil {
			acc = 0.0
		}
		return acc, nil
	case *GroupSum:
		rel, ok := env.rels[n.Rel]
		if !ok {
			return nil, fmt.Errorf("ifaq: unknown relation %s", n.Rel)
		}
		dict := &Dict{M: make(map[float64]Value)}
		old, had := env.vars[n.Var]
		row := &Row{Rel: rel}
		env.vars[n.Var] = row
		for i := 0; i < rel.NumRows(); i++ {
			row.I = i
			kv, err := Eval(n.Key, env)
			if err != nil {
				return nil, err
			}
			k, ok := kv.(float64)
			if !ok {
				return nil, fmt.Errorf("ifaq: group key is %T, want float", kv)
			}
			v, err := Eval(n.Val, env)
			if err != nil {
				return nil, err
			}
			dict.M[k], err = accumulate(dict.M[k], v)
			if err != nil {
				return nil, err
			}
		}
		if had {
			env.vars[n.Var] = old
		} else {
			delete(env.vars, n.Var)
		}
		return dict, nil
	case *Lookup:
		dv, err := Eval(n.Dict, env)
		if err != nil {
			return nil, err
		}
		dict, ok := dv.(*Dict)
		if !ok {
			return nil, fmt.Errorf("ifaq: lookup on %T", dv)
		}
		kv, err := Eval(n.Key, env)
		if err != nil {
			return nil, err
		}
		k, ok := kv.(float64)
		if !ok {
			return nil, fmt.Errorf("ifaq: lookup key is %T", kv)
		}
		v, ok := dict.M[k]
		if !ok {
			return 0.0, nil // sparse semantics: absent = zero
		}
		return v, nil
	case *Iterate:
		x, err := Eval(n.Init, env)
		if err != nil {
			return nil, err
		}
		old, had := env.vars[n.Var]
		for i := 0; i < n.N; i++ {
			env.vars[n.Var] = x
			x, err = Eval(n.Body, env)
			if err != nil {
				return nil, err
			}
		}
		if had {
			env.vars[n.Var] = old
		} else {
			delete(env.vars, n.Var)
		}
		return x, nil
	default:
		return nil, fmt.Errorf("ifaq: eval: unknown node %T", e)
	}
}

// fieldOf resolves a dynamic field access on records and rows.
func fieldOf(v Value, name string) (Value, error) {
	switch r := v.(type) {
	case *Rec:
		out, ok := r.Get(name)
		if !ok {
			return nil, fmt.Errorf("ifaq: record has no field %s", name)
		}
		return out, nil
	case *Row:
		c := r.Rel.AttrIndex(name)
		if c < 0 {
			return nil, fmt.Errorf("ifaq: relation %s has no attribute %s", r.Rel.Name, name)
		}
		return rowValue(r, c), nil
	case float64:
		// The zero of a record type degraded to scalar 0 (sparse lookup
		// miss): every field of zero is zero.
		if v == 0.0 {
			return 0.0, nil
		}
	}
	return nil, fmt.Errorf("ifaq: field access %s on %T", name, v)
}

// slotOf resolves a static slot access.
func slotOf(v Value, idx int, name string) (Value, error) {
	switch r := v.(type) {
	case *Rec:
		if idx < 0 || idx >= len(r.Vals) {
			return nil, fmt.Errorf("ifaq: slot %d out of range", idx)
		}
		return r.Vals[idx], nil
	case *Row:
		return rowValue(r, idx), nil
	case float64:
		if v == 0.0 {
			return 0.0, nil
		}
	}
	_ = name
	return nil, fmt.Errorf("ifaq: slot access on %T", v)
}

func rowValue(r *Row, col int) float64 {
	c := r.Rel.Col(col)
	if c.Type == relation.Double {
		return c.F[r.I]
	}
	return float64(c.C[r.I])
}

// accumulate adds v into acc, mutating acc's storage when acc is a
// record the accumulator owns. The first accumulated value is deep-copied
// so that values read out of shared structures (view dictionaries) are
// never mutated.
func accumulate(acc, v Value) (Value, error) {
	if acc == nil {
		return cloneValue(v), nil
	}
	a, ok1 := acc.(*Rec)
	b, ok2 := v.(*Rec)
	if ok1 && ok2 && len(a.Vals) == len(b.Vals) {
		for i := range a.Vals {
			x, err := accumulateCell(a.Vals[i], b.Vals[i])
			if err != nil {
				return nil, err
			}
			a.Vals[i] = x
		}
		return a, nil
	}
	return addValues(acc, v)
}

func accumulateCell(a, b Value) (Value, error) {
	x, ok1 := a.(float64)
	y, ok2 := b.(float64)
	if ok1 && ok2 {
		return x + y, nil
	}
	return addValues(a, b)
}

// cloneValue deep-copies records; scalars and rows pass through.
func cloneValue(v Value) Value {
	r, ok := v.(*Rec)
	if !ok {
		return v
	}
	vals := make([]Value, len(r.Vals))
	for i := range r.Vals {
		vals[i] = cloneValue(r.Vals[i])
	}
	return &Rec{Names: r.Names, Vals: vals, idx: r.idx}
}

// addValues adds two values component-wise; nil acts as zero.
func addValues(a, b Value) (Value, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		if !ok {
			return nil, fmt.Errorf("ifaq: adding float and %T", b)
		}
		return x + y, nil
	case *Rec:
		y, ok := b.(*Rec)
		if !ok || len(y.Vals) != len(x.Vals) {
			return nil, fmt.Errorf("ifaq: adding incompatible records")
		}
		vals := make([]Value, len(x.Vals))
		for i := range vals {
			v, err := addValues(x.Vals[i], y.Vals[i])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return &Rec{Names: x.Names, Vals: vals, idx: x.idx}, nil
	}
	return nil, fmt.Errorf("ifaq: cannot add %T", a)
}
