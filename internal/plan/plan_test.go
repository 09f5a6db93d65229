package plan

import (
	"reflect"
	"testing"

	"borg/internal/query"
	"borg/internal/relation"
)

// star builds a four-relation star join around a Sales fact table, with
// the given row counts. The attribute graph: Sales(item, store, cust)
// joins Items(item), Stores(store), Custs(cust).
func star(nSales, nItems, nStores, nCusts int) *query.Join {
	db := relation.NewDatabase()
	mk := func(name, key string, extra string, n int) *relation.Relation {
		r := db.NewRelation(name, []relation.Attribute{
			{Name: key, Type: relation.Category},
			{Name: extra, Type: relation.Double},
		})
		for i := 0; i < n; i++ {
			r.AppendRow(relation.CatVal(int32(i)), relation.FloatVal(float64(i)))
		}
		return r
	}
	sales := db.NewRelation("Sales", []relation.Attribute{
		{Name: "item", Type: relation.Category},
		{Name: "store", Type: relation.Category},
		{Name: "cust", Type: relation.Category},
		{Name: "units", Type: relation.Double},
	})
	for i := 0; i < nSales; i++ {
		sales.AppendRow(relation.CatVal(0), relation.CatVal(0), relation.CatVal(0), relation.FloatVal(1))
	}
	items := mk("Items", "item", "price", nItems)
	stores := mk("Stores", "store", "area", nStores)
	custs := mk("Custs", "cust", "age", nCusts)
	return query.NewJoin(sales, items, stores, custs)
}

// TestGreedyRootIsLargest: the greedy planner roots at the largest
// relation, whichever it is.
func TestGreedyRootIsLargest(t *testing.T) {
	for _, tc := range []struct {
		nSales, nItems int
		want           string
	}{
		{100, 10, "Sales"},
		{10, 100, "Items"},
	} {
		p, err := New(star(tc.nSales, tc.nItems, 5, 5), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Root != tc.want {
			t.Errorf("greedy root with Sales=%d Items=%d: got %s, want %s", tc.nSales, tc.nItems, p.Root, tc.want)
		}
		if !p.Greedy {
			t.Error("plan not marked greedy")
		}
	}
}

// TestGreedyRootTieBreak: equal cardinalities break lexicographically by
// relation name, so the plan is deterministic across runs and map
// orders.
func TestGreedyRootTieBreak(t *testing.T) {
	j := star(7, 7, 7, 7)
	p, err := New(j, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Custs < Items < Sales < Stores lexicographically.
	if p.Root != "Custs" {
		t.Fatalf("tie-broken root: got %s, want Custs", p.Root)
	}
}

// TestPinnedRoot: PinnedRoot overrides greedy choice; an unknown pin
// fails with the relations listed.
func TestPinnedRoot(t *testing.T) {
	j := star(100, 5, 5, 5)
	p, err := New(j, Options{PinnedRoot: "Stores"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != "Stores" || p.Greedy {
		t.Fatalf("pinned plan: root %s greedy %v", p.Root, p.Greedy)
	}
	if _, err := New(j, Options{PinnedRoot: "Nope"}); err == nil {
		t.Fatal("unknown pinned root accepted")
	}
}

// TestChildOrderSmallestFirst: children attach in ascending subtree
// cardinality, so the cheapest subtrees expand first.
func TestChildOrderSmallestFirst(t *testing.T) {
	j := star(1000, 50, 5, 500)
	p, err := New(j, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != "Sales" {
		t.Fatalf("root: got %s, want Sales", p.Root)
	}
	var got []string
	for _, c := range p.Tree.Root.Children {
		got = append(got, c.Rel.Name)
	}
	want := []string{"Stores", "Items", "Custs"} // 5 < 50 < 500
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("child order: got %v, want %v", got, want)
	}
	// BottomUp is rebuilt to match: children before parents, root last.
	if last := p.Tree.BottomUp[len(p.Tree.BottomUp)-1]; last != p.Tree.Root {
		t.Fatalf("BottomUp does not end at the root (got %s)", last.Rel.Name)
	}
	seen := map[string]bool{}
	for _, n := range p.Tree.BottomUp {
		for _, c := range n.Children {
			if !seen[c.Rel.Name] {
				t.Fatalf("BottomUp schedules %s before child %s", n.Rel.Name, c.Rel.Name)
			}
		}
		seen[n.Rel.Name] = true
	}
}

// TestStaticReproducesLegacyTree: Static+PinnedRoot yields exactly the
// tree BuildJoinTree has always produced — the bit-compatibility
// guarantee pinned queries rely on.
func TestStaticReproducesLegacyTree(t *testing.T) {
	j := star(10, 500, 50, 5) // sizes that would make greedy reorder
	legacy, err := j.BuildJoinTree("Sales")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(j, Options{PinnedRoot: "Sales", Static: true})
	if err != nil {
		t.Fatal(err)
	}
	var lNames, pNames []string
	for _, c := range legacy.Root.Children {
		lNames = append(lNames, c.Rel.Name)
	}
	for _, c := range p.Tree.Root.Children {
		pNames = append(pNames, c.Rel.Name)
	}
	if !reflect.DeepEqual(lNames, pNames) {
		t.Fatalf("static child order diverged: got %v, want %v", pNames, lNames)
	}
}

// TestDeterminism: planning the same join with the same cardinalities
// twice yields identical root, child order, width, and depth.
func TestDeterminism(t *testing.T) {
	cards := map[string]int{"Sales": 10, "Items": 400, "Stores": 400, "Custs": 3}
	j := star(1, 1, 1, 1)
	a, err := New(j, Options{Cardinalities: cards})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(j, Options{Cardinalities: cards})
	if err != nil {
		t.Fatal(err)
	}
	if a.Root != b.Root || a.Width != b.Width || a.Depth != b.Depth {
		t.Fatalf("plans diverged: %+v vs %+v", a, b)
	}
	if a.VarOrder.String() != b.VarOrder.String() {
		t.Fatalf("variable orders diverged:\n%s\nvs\n%s", a.VarOrder, b.VarOrder)
	}
	// Items and Stores tie at 400; the lexicographically smaller name
	// must win the root.
	if a.Root != "Items" {
		t.Fatalf("tie at 400 rows: root %s, want Items", a.Root)
	}
}

// TestWidthAndDepth: an acyclic star has factorization width 1 and a
// positive variable-order depth.
func TestWidthAndDepth(t *testing.T) {
	p, err := New(star(10, 5, 5, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Width != 1 {
		t.Errorf("width: got %d, want 1 (acyclic)", p.Width)
	}
	if p.Depth < 2 {
		t.Errorf("depth: got %d, want ≥ 2", p.Depth)
	}
}

// TestPlanningIsCheap: a plan over the 4-relation star costs well under
// a millisecond — the property live replanning depends on.
func TestPlanningIsCheap(t *testing.T) {
	j := star(1000, 100, 10, 10)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := New(j, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if perOp := res.NsPerOp(); perOp > 1_000_000 {
		t.Fatalf("planning costs %d ns/op, want < 1ms", perOp)
	}
}
