package testdb

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"borg/internal/relation"
	"borg/internal/ring"
)

// Oracle is the naive recompute a history is checked against: the
// rows that survive a prefix of it, joined by nested loops. It shares
// no code with the engines and maintainers it checks.
type Oracle struct {
	attrs  []string           // every attribute of the join, first use first
	rows   map[string][][]any // live rows per relation
	rels   []Rel
	joined [][]any // join's result, once computed
}

// Survivors replays the row operations of steps[:upto].
func (h *History) Survivors(upto int) *Oracle {
	o := &Oracle{rows: make(map[string][][]any), rels: h.Schema()}
	for _, r := range o.rels {
		for _, a := range r.Attrs {
			if !slices.Contains(o.attrs, a.Name) {
				o.attrs = append(o.attrs, a.Name)
			}
		}
	}
	remove := func(rel string, row []any) {
		rows := o.rows[rel]
		for i, r := range rows {
			if slices.Equal(r, row) {
				o.rows[rel] = slices.Delete(rows, i, i+1)
				return
			}
		}
		panic(fmt.Sprintf("testdb: %s%v is not live", rel, row))
	}
	for _, s := range h.Steps[:upto] {
		switch s.Kind {
		case Insert:
			o.rows[s.Rel] = append(o.rows[s.Rel], s.Row)
		case Delete:
			remove(s.Rel, s.Row)
		case Update:
			remove(s.Rel, s.Row)
			o.rows[s.Rel] = append(o.rows[s.Rel], s.New)
		}
	}
	return o
}

// Rows returns the live rows of a relation.
func (o *Oracle) Rows(rel string) [][]any { return o.rows[rel] }

// Live reports whether any row of any relation is live.
func (o *Oracle) Live() bool {
	for _, rows := range o.rows {
		if len(rows) > 0 {
			return true
		}
	}
	return false
}

// join enumerates the joined tuples, each a binding of every attribute
// (in first-use order), by nested loops over the relations in schema
// order: a row joins when it agrees with the attributes bound before it.
func (o *Oracle) join() [][]any {
	if o.joined != nil {
		return o.joined
	}
	type col struct {
		i, pos int
		bound  bool // by a relation before this one
	}
	levels := make([][]col, len(o.rels))
	bound := make([]bool, len(o.attrs))
	for r, rel := range o.rels {
		for i, a := range rel.Attrs {
			p := slices.Index(o.attrs, a.Name)
			levels[r] = append(levels[r], col{i, p, bound[p]})
			bound[p] = true
		}
	}
	o.joined = [][]any{}
	bind := make([]any, len(o.attrs))
	var loop func(r int)
	loop = func(r int) {
		if r == len(o.rels) {
			o.joined = append(o.joined, slices.Clone(bind))
			return
		}
	rows:
		for _, row := range o.rows[o.rels[r].Name] {
			for _, c := range levels[r] {
				if c.bound && bind[c.pos] != row[c.i] {
					continue rows
				}
			}
			for _, c := range levels[r] {
				bind[c.pos] = row[c.i]
			}
			loop(r + 1)
		}
	}
	loop(0)
	return o.joined
}

// floats returns, for each joined tuple, the values of feats.
func (o *Oracle) floats(joined [][]any, feats []string) [][]float64 {
	pos := make([]int, len(feats))
	for i, f := range feats {
		pos[i] = slices.Index(o.attrs, f)
	}
	out := make([][]float64, len(joined))
	for k, t := range joined {
		out[k] = make([]float64, len(feats))
		for i, p := range pos {
			out[k][i] = t[p].(float64)
		}
	}
	return out
}

// Covar returns COUNT, SUM(x_i) and SUM(x_i·x_j) over the join, the
// features in the given order.
func (o *Oracle) Covar(feats []string) *ring.Covar {
	return o.covarOf(o.join(), feats)
}

func (o *Oracle) covarOf(joined [][]any, feats []string) *ring.Covar {
	n := len(feats)
	c := ring.CovarRing{N: n}.Zero()
	for _, x := range o.floats(joined, feats) {
		c.Count++
		for i := range x {
			c.Sum[i] += x[i]
			for j := range x {
				c.Q[i*n+j] += x[i] * x[j]
			}
		}
	}
	return c
}

// Poly2 returns every moment of degree ≤ 4 over the join, in r's
// monomial order over the features in the given order.
func (o *Oracle) Poly2(r *ring.Poly2Ring, feats []string) *ring.Poly2 {
	out := r.Zero()
	factors := make([][]int, len(out.M)) // each monomial's features, one per power
	for i := range factors {
		vars, pows := r.Monomial(i)
		for k, f := range vars {
			for p := uint8(0); p < pows[k]; p++ {
				factors[i] = append(factors[i], f)
			}
		}
	}
	for _, x := range o.floats(o.join(), feats) {
		for i, fs := range factors {
			v := 1.0
			for _, f := range fs {
				v *= x[f]
			}
			out.M[i] += v
		}
	}
	return out
}

// Cofactor returns the covariance triple of each group of categorical
// values over the join, keyed by the values joined with "|".
func (o *Oracle) Cofactor(cont, cats []string) map[string]*ring.Covar {
	groups := make(map[string][][]any)
	for _, t := range o.join() {
		key := make([]string, len(cats))
		for i, c := range cats {
			key[i] = t[slices.Index(o.attrs, c)].(string)
		}
		k := strings.Join(key, "|")
		groups[k] = append(groups[k], t)
	}
	out := make(map[string]*ring.Covar, len(groups))
	//borg:nondeterministic-ok — every group is computed alone
	for k, rows := range groups {
		out[k] = o.covarOf(rows, cont)
	}
	return out
}

// Relation returns the joined tuples as one relation over every
// attribute, categories coded through db's dictionaries.
func (o *Oracle) Relation(db *relation.Database) *relation.Relation {
	attrs := make([]relation.Attribute, len(o.attrs))
	for i, a := range o.attrs {
		attrs[i] = relation.Attribute{Name: a, Type: relation.Double}
		if db.Dict(a) != nil {
			attrs[i].Type = relation.Category
		}
	}
	out := relation.New("joined", attrs)
	for _, t := range o.join() {
		vals := make([]relation.Value, len(t))
		for i, v := range t {
			if s, ok := v.(string); ok {
				vals[i] = relation.CatVal(db.Dict(o.attrs[i]).Code(s))
			} else {
				vals[i] = relation.FloatVal(v.(float64))
			}
		}
		out.AppendRow(vals...)
	}
	return out
}

// Near reports whether got matches want: bit for bit when exact, else
// within 1e-9 relative (with an absolute floor of 1e-9, for retractions
// that leave rounding residue on a value the survivors make zero).
func Near(got, want float64, exact bool) bool {
	if exact {
		return math.Float64bits(got) == math.Float64bits(want) || got == want
	}
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(got)+math.Abs(want))
}

// CompareCovar returns an error naming the first component where got
// does not match want.
func CompareCovar(got, want *ring.Covar, exact bool) error {
	if got.N != want.N {
		return fmt.Errorf("width %d, oracle %d", got.N, want.N)
	}
	if !Near(got.Count, want.Count, exact) {
		return fmt.Errorf("count %v, oracle %v", got.Count, want.Count)
	}
	for i := range want.Sum {
		if !Near(got.Sum[i], want.Sum[i], exact) {
			return fmt.Errorf("sum[%d] %v, oracle %v", i, got.Sum[i], want.Sum[i])
		}
	}
	for i := range want.Q {
		if !Near(got.Q[i], want.Q[i], exact) {
			return fmt.Errorf("moment[%d,%d] %v, oracle %v", i/want.N, i%want.N, got.Q[i], want.Q[i])
		}
	}
	return nil
}

// ComparePoly2 is CompareCovar for the degree-≤4 moments.
func ComparePoly2(got, want *ring.Poly2, exact bool) error {
	if got == nil || len(got.M) != len(want.M) {
		return fmt.Errorf("lifted element %v, oracle has %d moments", got, len(want.M))
	}
	for i := range want.M {
		if !Near(got.M[i], want.M[i], exact) {
			vars, pows := want.Ring().Monomial(i)
			return fmt.Errorf("moment %v^%v %v, oracle %v", vars, pows, got.M[i], want.M[i])
		}
	}
	return nil
}

// CompareCofactor holds every group of got, its codes named through
// name, to the oracle's group. A group the oracle lacks must have
// drained to a zero count.
func CompareCofactor(got *ring.Cofactor, name func(slot int, code int32) string, want map[string]*ring.Covar, exact bool) error {
	if got == nil {
		return fmt.Errorf("no cofactor element")
	}
	var err error
	seen := 0
	got.Each(func(codes []int32, g *ring.Covar) {
		key := make([]string, len(codes))
		for i, c := range codes {
			key[i] = name(i, c)
		}
		k := strings.Join(key, "|")
		w := want[k]
		switch {
		case err != nil:
		case w == nil && g.Count != 0:
			err = fmt.Errorf("group %s: count %v, oracle has no such group", k, g.Count)
		case w != nil:
			seen++
			if e := CompareCovar(g, w, exact); e != nil {
				err = fmt.Errorf("group %s: %w", k, e)
			}
		}
	})
	if err == nil && seen != len(want) {
		err = fmt.Errorf("%d of the oracle's %d groups present", seen, len(want))
	}
	return err
}
