package factor

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"borg/internal/engine"
	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/testdb"
)

func buildFigure7(t *testing.T) (*query.Join, *FRep) {
	t.Helper()
	_, j := testdb.Figure7()
	jt, err := j.BuildJoinTree("Orders")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(j, query.BuildVarOrder(jt))
	if err != nil {
		t.Fatal(err)
	}
	return j, f
}

// countLift is the Figure 9 (left) lift: every value maps to its bag
// multiplicity under the counting ring.
func countLift(_ *query.VarNode, e *Entry) int64 { return e.Mult }

func TestFigure9Count(t *testing.T) {
	_, f := buildFigure7(t)
	if got := EvalRing[int64](f, ring.Int{}, countLift); got != 12 {
		t.Fatalf("COUNT over f-rep = %d, want 12", got)
	}
	if f.TupleCount() != 12 {
		t.Fatalf("TupleCount = %d, want 12", f.TupleCount())
	}
}

func TestFigure9SumPrice(t *testing.T) {
	_, f := buildFigure7(t)
	got := EvalRing[float64](f, ring.Float{}, func(v *query.VarNode, e *Entry) float64 {
		if v.Attr == "price" {
			return e.Num * float64(e.Mult)
		}
		return float64(e.Mult)
	})
	if got != 36 {
		t.Fatalf("SUM(price) over f-rep = %v, want 36 (Figure 9 right: 20·f(burger)+16·f(hotdog), f≡1)", got)
	}
}

func TestFigure10CovarTriples(t *testing.T) {
	// Figure 10 computes SUM(1), SUM(price), SUM(price*dish) in one pass
	// using the triple ring. With dish one-hot-mapped to f(dish)=1 the
	// third component folds to SUM(price); we verify the triple against
	// the flat join: count=12, sum=36, sum of squares=136.
	_, f := buildFigure7(t)
	r := ring.CovarRing{N: 1}
	got := EvalRing[*ring.Covar](f, r, func(v *query.VarNode, e *Entry) *ring.Covar {
		if v.Attr == "price" {
			el := r.Lift([]int{0}, []float64{e.Num})
			// Scale for multiplicity (entries with Mult>1 are repeats).
			for m := int64(1); m < e.Mult; m++ {
				el.AddInPlace(r.Lift([]int{0}, []float64{e.Num}))
			}
			return el
		}
		el := r.One()
		el.Count = float64(e.Mult)
		return el
	})
	if got.Count != 12 || got.Sum[0] != 36 || got.Q[0] != 136 {
		t.Fatalf("covariance triple = (%v, %v, %v), want (12, 36, 136)", got.Count, got.Sum[0], got.Q[0])
	}
}

func TestFigure8SizesAndSharing(t *testing.T) {
	_, f := buildFigure7(t)
	// Flat join: 12 tuples × 5 attributes = 60 values.
	if f.FlatValueCount() != 60 {
		t.Fatalf("FlatValueCount = %d, want 60", f.FlatValueCount())
	}
	vc := f.ValueCount()
	if vc >= 60 {
		t.Fatalf("f-rep has %d values, not smaller than flat 60", vc)
	}
	// bun and onion appear under both dishes: their price subtrees must
	// be cache hits.
	if f.SharedNodeCount() == 0 {
		t.Fatal("no shared nodes; price caching of Figure 8 not happening")
	}
	if f.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio = %v, want > 1", f.CompressionRatio())
	}
}

// tupleMultiset renders every tuple of the join as a sorted string
// multiset for order-insensitive comparison.
func tupleMultiset(rel *relation.Relation) map[string]int {
	out := make(map[string]int)
	attrs := rel.Attrs()
	idx := make([]int, len(attrs))
	names := make([]string, len(attrs))
	for i := range attrs {
		idx[i] = i
		names[i] = attrs[i].Name
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	for row := 0; row < rel.NumRows(); row++ {
		var b strings.Builder
		for _, c := range idx {
			fmt.Fprintf(&b, "%s=%s;", attrs[c].Name, rel.FormatCell(c, row))
		}
		out[b.String()]++
	}
	return out
}

func TestEnumerateMatchesMaterializedJoin(t *testing.T) {
	j, f := buildFigure7(t)
	flat, err := engine.MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	want := tupleMultiset(flat)
	got := make(map[string]int)
	var names []string
	for _, a := range j.Attrs() {
		names = append(names, a)
	}
	sort.Strings(names)
	f.Enumerate(func(assign map[string]relation.Value) {
		var b strings.Builder
		for _, n := range names {
			v := assign[n]
			typ, _ := j.AttrType(n)
			if typ == relation.Category {
				// Decode through any relation holding the attribute.
				for _, r := range j.Relations {
					if col := r.ColByName(n); col != nil {
						fmt.Fprintf(&b, "%s=%s;", n, col.Dict.Name(v.C))
						break
					}
				}
			} else {
				fmt.Fprintf(&b, "%s=%g;", n, v.F)
			}
		}
		got[b.String()]++
	})
	if len(got) != len(want) {
		t.Fatalf("enumeration has %d distinct tuples, join has %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("tuple %q: enumerated %d times, join has %d", k, got[k], n)
		}
	}
}

func TestRandomStarAgreesWithEngine(t *testing.T) {
	for _, seed := range []uint64{21, 22, 23} {
		_, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: seed, FactRows: 300, DimRows: []int{12, 7}, DanglingDims: true})
		jt, err := j.BuildJoinTree("Fact")
		if err != nil {
			t.Fatal(err)
		}
		f, err := Build(j, query.BuildVarOrder(jt))
		if err != nil {
			t.Fatal(err)
		}
		flat, err := engine.MaterializeJoin(j)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.TupleCount(), int64(flat.NumRows()); got != want {
			t.Fatalf("seed %d: TupleCount = %d, engine join = %d", seed, got, want)
		}
		// SUM(fx) and SUM(d0x) through the float ring.
		for _, attr := range []string{"fx", "d0x"} {
			attr := attr
			got := EvalRing[float64](f, ring.Float{}, func(v *query.VarNode, e *Entry) float64 {
				if v.Attr == attr {
					return e.Num * float64(e.Mult)
				}
				return float64(e.Mult)
			})
			want, err := engine.EvalAggregateRT(exec.Serial(), flat, &query.AggSpec{ID: "s", Factors: []query.Factor{{Attr: attr, Power: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			if diff := got - want.Scalar; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("seed %d: SUM(%s) over f-rep = %v, engine = %v", seed, attr, got, want.Scalar)
			}
		}
	}
}

func TestSnowflakeCompression(t *testing.T) {
	_, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: 24, FactRows: 2000, DimRows: []int{10, 6}, Snowflake: true})
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(j, query.BuildVarOrder(jt))
	if err != nil {
		t.Fatal(err)
	}
	if f.CompressionRatio() <= 1 {
		t.Fatalf("snowflake compression ratio = %v, want > 1", f.CompressionRatio())
	}
}

func TestEmptyJoinFRep(t *testing.T) {
	_, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: 25, FactRows: 0, DimRows: []int{3}})
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(j, query.BuildVarOrder(jt))
	if err != nil {
		t.Fatal(err)
	}
	if f.TupleCount() != 0 || f.ValueCount() != 0 {
		t.Fatalf("empty join f-rep: tuples=%d values=%d", f.TupleCount(), f.ValueCount())
	}
	ran := false
	f.Enumerate(func(map[string]relation.Value) { ran = true })
	if ran {
		t.Fatal("Enumerate produced tuples for empty join")
	}
}

func TestVarOrderMissingAttrRejected(t *testing.T) {
	_, j := testdb.Figure7()
	jt, err := j.BuildJoinTree("Orders")
	if err != nil {
		t.Fatal(err)
	}
	vo := query.BuildVarOrder(jt)
	// Sabotage: drop the price variable from the order.
	var prune func(n *query.VarNode)
	prune = func(n *query.VarNode) {
		kept := n.Children[:0]
		for _, c := range n.Children {
			if c.Attr != "price" {
				prune(c)
				kept = append(kept, c)
			}
		}
		n.Children = kept
	}
	for _, r := range vo.Roots {
		prune(r)
	}
	if _, err := Build(j, vo); err == nil {
		t.Fatal("Build accepted a variable order missing an attribute")
	}
}

func TestDuplicateRowsMultiplicity(t *testing.T) {
	db := relation.NewDatabase()
	a := db.NewRelation("A", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "x", Type: relation.Double},
	})
	b := db.NewRelation("B", []relation.Attribute{
		{Name: "k", Type: relation.Category},
	})
	// Duplicate rows on both sides: 2 copies of (0, 1.5) joined with 3
	// copies of (0) → 6 result tuples.
	a.AppendRow(relation.CatVal(0), relation.FloatVal(1.5))
	a.AppendRow(relation.CatVal(0), relation.FloatVal(1.5))
	for i := 0; i < 3; i++ {
		b.AppendRow(relation.CatVal(0))
	}
	j := query.NewJoin(a, b)
	jt, err := j.BuildJoinTree("A")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(j, query.BuildVarOrder(jt))
	if err != nil {
		t.Fatal(err)
	}
	if f.TupleCount() != 6 {
		t.Fatalf("TupleCount = %d, want 6 (bag semantics)", f.TupleCount())
	}
	sum := EvalRing[float64](f, ring.Float{}, func(v *query.VarNode, e *Entry) float64 {
		if v.Attr == "x" {
			return e.Num * float64(e.Mult)
		}
		return float64(e.Mult)
	})
	if sum != 9 {
		t.Fatalf("SUM(x) = %v, want 9", sum)
	}
}

// Enumerate streams the tuples of the represented join result, honoring
// multiplicities. The callback receives the assignment keyed by attribute
// name; it must copy values it wants to keep. Enumeration order follows
// the variable order.
func (f *FRep) Enumerate(fn func(assign map[string]relation.Value)) {
	if len(f.Roots) == 0 {
		return
	}
	assign := make(map[string]relation.Value)
	var rec func(pending []*Node)
	rec = func(pending []*Node) {
		if len(pending) == 0 {
			fn(assign)
			return
		}
		n := pending[0]
		rest := pending[1:]
		t, _ := f.Order.Join.AttrType(n.Var.Attr)
		for i := range n.Entries {
			e := &n.Entries[i]
			if t == relation.Category {
				assign[n.Var.Attr] = relation.CatVal(e.Cat)
			} else {
				assign[n.Var.Attr] = relation.FloatVal(e.Num)
			}
			next := append(append(make([]*Node, 0, len(e.Children)+len(rest)), e.Children...), rest...)
			for m := int64(0); m < e.Mult; m++ {
				rec(next)
			}
		}
		delete(assign, n.Var.Attr)
	}
	rec(f.Roots)
}
