package query

import (
	"strings"
	"testing"

	"borg/internal/relation"
)

// figure7DB builds the paper's running example (Figure 7): Orders(customer,
// day, dish), Dish(dish, item), Items(item, price).
func figure7DB() (*relation.Database, *Join) {
	db := relation.NewDatabase()
	orders := db.NewRelation("Orders", []relation.Attribute{
		{Name: "customer", Type: relation.Category},
		{Name: "day", Type: relation.Category},
		{Name: "dish", Type: relation.Category},
	})
	dish := db.NewRelation("Dish", []relation.Attribute{
		{Name: "dish", Type: relation.Category},
		{Name: "item", Type: relation.Category},
	})
	items := db.NewRelation("Items", []relation.Attribute{
		{Name: "item", Type: relation.Category},
		{Name: "price", Type: relation.Double},
	})

	c := db.Dict("customer")
	d := db.Dict("day")
	di := db.Dict("dish")
	it := db.Dict("item")
	add := func(r *relation.Relation, vals ...relation.Value) { r.AppendRow(vals...) }
	add(orders, relation.CatVal(c.Code("Elise")), relation.CatVal(d.Code("Monday")), relation.CatVal(di.Code("burger")))
	add(orders, relation.CatVal(c.Code("Elise")), relation.CatVal(d.Code("Friday")), relation.CatVal(di.Code("burger")))
	add(orders, relation.CatVal(c.Code("Steve")), relation.CatVal(d.Code("Friday")), relation.CatVal(di.Code("hotdog")))
	add(orders, relation.CatVal(c.Code("Joe")), relation.CatVal(d.Code("Friday")), relation.CatVal(di.Code("hotdog")))
	add(dish, relation.CatVal(di.Code("burger")), relation.CatVal(it.Code("patty")))
	add(dish, relation.CatVal(di.Code("burger")), relation.CatVal(it.Code("onion")))
	add(dish, relation.CatVal(di.Code("burger")), relation.CatVal(it.Code("bun")))
	add(dish, relation.CatVal(di.Code("hotdog")), relation.CatVal(it.Code("bun")))
	add(dish, relation.CatVal(di.Code("hotdog")), relation.CatVal(it.Code("onion")))
	add(dish, relation.CatVal(di.Code("hotdog")), relation.CatVal(it.Code("sausage")))
	add(items, relation.CatVal(it.Code("patty")), relation.FloatVal(6))
	add(items, relation.CatVal(it.Code("onion")), relation.FloatVal(2))
	add(items, relation.CatVal(it.Code("bun")), relation.FloatVal(2))
	add(items, relation.CatVal(it.Code("sausage")), relation.FloatVal(4))

	return db, NewJoin(orders, dish, items)
}

func TestJoinAttrs(t *testing.T) {
	_, j := figure7DB()
	got := strings.Join(j.Attrs(), ",")
	want := "customer,day,dish,item,price"
	if got != want {
		t.Fatalf("Attrs = %s, want %s", got, want)
	}
	if typ, ok := j.AttrType("price"); !ok || typ != relation.Double {
		t.Fatal("AttrType(price) wrong")
	}
	if _, ok := j.AttrType("nope"); ok {
		t.Fatal("AttrType accepted unknown attribute")
	}
	if rels := j.RelationsWith("item"); len(rels) != 2 {
		t.Fatalf("RelationsWith(item) = %v", rels)
	}
}

func TestAcyclicPathJoin(t *testing.T) {
	_, j := figure7DB()
	if !j.IsAcyclic() {
		t.Fatal("Orders-Dish-Items path join reported cyclic")
	}
	jt, err := j.BuildJoinTree("Orders")
	if err != nil {
		t.Fatal(err)
	}
	if jt.Root.Rel.Name != "Orders" {
		t.Fatalf("root = %s", jt.Root.Rel.Name)
	}
	if len(jt.Root.Children) != 1 || jt.Root.Children[0].Rel.Name != "Dish" {
		t.Fatalf("Orders child = %+v", jt.Root.Children)
	}
	dish := jt.Root.Children[0]
	if got := strings.Join(dish.JoinAttrs, ","); got != "dish" {
		t.Fatalf("Dish edge label = %s", got)
	}
	if len(dish.Children) != 1 || dish.Children[0].Rel.Name != "Items" {
		t.Fatalf("Dish child = %+v", dish.Children)
	}
	if got := strings.Join(dish.Children[0].JoinAttrs, ","); got != "item" {
		t.Fatalf("Items edge label = %s", got)
	}
	// Bottom-up order must list children before parents.
	pos := map[string]int{}
	for i, n := range jt.BottomUp {
		pos[n.Rel.Name] = i
	}
	if !(pos["Items"] < pos["Dish"] && pos["Dish"] < pos["Orders"]) {
		t.Fatalf("BottomUp order wrong: %v", pos)
	}
	if jt.Root.Size() != 3 {
		t.Fatalf("Size = %d", jt.Root.Size())
	}
	sub := dish.SubtreeAttrs()
	if !sub["price"] || !sub["dish"] || sub["customer"] {
		t.Fatalf("SubtreeAttrs(Dish) = %v", sub)
	}
}

func TestDefaultRootIsLargest(t *testing.T) {
	_, j := figure7DB()
	jt, err := j.BuildJoinTree("")
	if err != nil {
		t.Fatal(err)
	}
	// Dish has 6 rows, the most.
	if jt.Root.Rel.Name != "Dish" {
		t.Fatalf("default root = %s, want Dish", jt.Root.Rel.Name)
	}
}

func TestCyclicTriangleDetected(t *testing.T) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{{Name: "a", Type: relation.Category}, {Name: "b", Type: relation.Category}})
	s := db.NewRelation("S", []relation.Attribute{{Name: "b", Type: relation.Category}, {Name: "c", Type: relation.Category}})
	u := db.NewRelation("T", []relation.Attribute{{Name: "c", Type: relation.Category}, {Name: "a", Type: relation.Category}})
	j := NewJoin(r, s, u)
	if j.IsAcyclic() {
		t.Fatal("triangle join reported acyclic")
	}
	if _, err := j.BuildJoinTree(""); err == nil {
		t.Fatal("BuildJoinTree accepted a cyclic join")
	}
}

func TestDisconnectedJoinRejected(t *testing.T) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{{Name: "a", Type: relation.Category}})
	s := db.NewRelation("S", []relation.Attribute{{Name: "b", Type: relation.Category}})
	j := NewJoin(r, s)
	// GYO still "removes" one as an ear with empty shared set; the DFS
	// then finds the disconnect... unless adjacency was created. Either a
	// tree with a cross edge or an error is acceptable for correctness,
	// but our implementation links them (cross product), so check it
	// builds and labels the edge empty.
	jt, err := j.BuildJoinTree("")
	if err != nil {
		t.Skipf("disconnected join rejected (acceptable): %v", err)
	}
	if len(jt.Root.Children) != 1 || jt.Root.Children[0].JoinAttrs != nil {
		t.Fatalf("cross edge mislabeled: %+v", jt.Root.Children)
	}
}

func TestUnknownRootRejected(t *testing.T) {
	_, j := figure7DB()
	if _, err := j.BuildJoinTree("Nope"); err == nil {
		t.Fatal("unknown root accepted")
	}
}

func TestEmptyJoinRejected(t *testing.T) {
	if _, err := NewJoin().BuildJoinTree(""); err == nil {
		t.Fatal("empty join accepted")
	}
}

func TestVarOrderFigure8Shape(t *testing.T) {
	_, j := figure7DB()
	jt, err := j.BuildJoinTree("Orders")
	if err != nil {
		t.Fatal(err)
	}
	vo := BuildVarOrder(jt)
	if len(vo.Roots) != 1 {
		t.Fatalf("var order has %d roots, want 1: %s", len(vo.Roots), vo)
	}
	// dish must dominate both the {day, customer} branch and the
	// {item, price} branch; price must be keyed on item only (the
	// caching opportunity highlighted in Figure 8).
	vars := map[string]*VarNode{}
	for _, v := range vo.Vars() {
		vars[v.Attr] = v
	}
	if len(vars) != 5 {
		t.Fatalf("var order misses attributes: %s", vo)
	}
	price := vars["price"]
	if len(price.Key) != 1 || price.Key[0] != "item" {
		t.Fatalf("price key = %v, want [item]; order:\n%s", price.Key, vo)
	}
	item := vars["item"]
	if len(item.Key) != 1 || item.Key[0] != "dish" {
		t.Fatalf("item key = %v, want [dish]", item.Key)
	}
	if vo.Roots[0].Attr != "dish" {
		t.Fatalf("root var = %s, want dish (order:\n%s)", vo.Roots[0].Attr, vo)
	}
	if w := vo.FactorizationWidth(); w != 1 {
		t.Fatalf("factorization width = %d, want 1 for acyclic join", w)
	}
	if s := vo.String(); !strings.Contains(s, "price {item}") {
		t.Fatalf("String() missing adornment:\n%s", s)
	}
}

func TestAggSpecValidate(t *testing.T) {
	_, j := figure7DB()
	good := []AggSpec{
		{ID: "count"},
		{ID: "sum_p", Factors: []Factor{{Attr: "price", Power: 1}}},
		{ID: "sum_p2", Factors: []Factor{{Attr: "price", Power: 2}}},
		{ID: "cnt_by_dish", GroupBy: []string{"dish"}},
		{ID: "p_by_dish_item", GroupBy: []string{"dish", "item"}, Factors: []Factor{{Attr: "price", Power: 1}}},
		{ID: "filtered", Factors: []Factor{{Attr: "price", Power: 1}}, Filters: []Filter{{Attr: "price", Op: GE, Threshold: 3}}},
	}
	for i := range good {
		if err := good[i].Validate(j); err != nil {
			t.Errorf("valid spec %s rejected: %v", good[i].ID, err)
		}
	}
	bad := []AggSpec{
		{ID: "b1", GroupBy: []string{"price"}},                                       // group-by continuous
		{ID: "b2", GroupBy: []string{"nope"}},                                        // unknown
		{ID: "b3", Factors: []Factor{{Attr: "dish", Power: 1}}},                      // factor categorical
		{ID: "b4", Factors: []Factor{{Attr: "price", Power: 9}}},                     // power range
		{ID: "b5", Filters: []Filter{{Attr: "dish", Op: GE, Threshold: 1}}},          // threshold on categorical
		{ID: "b6", Filters: []Filter{{Attr: "price", Op: EQ, Code: 1}}},              // code filter on continuous
		{ID: "b7", GroupBy: []string{"dish", "item", "day", "customer", "customer"}}, // too wide
		{ID: "b8", Factors: []Factor{{Attr: "price", Power: 0}}},                     // zero power
		{ID: "b9", Filters: []Filter{{Attr: "ghost", Op: GE, Threshold: 0}}},         // unknown filter attr
	}
	for i := range bad {
		if err := bad[i].Validate(j); err == nil {
			t.Errorf("invalid spec %s accepted", bad[i].ID)
		}
	}
}

func TestAggSpecString(t *testing.T) {
	s := AggSpec{
		ID:      "q",
		GroupBy: []string{"dish"},
		Factors: []Factor{{Attr: "price", Power: 2}},
		Filters: []Filter{{Attr: "price", Op: GE, Threshold: 3}, {Attr: "item", Op: EQ, Code: 2}},
	}
	got := s.String()
	for _, want := range []string{"SUM(price^2)", "WHERE price>=3", "AND item=#2", "GROUP BY dish"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
	if (&AggSpec{ID: "c"}).String() != "SUM(1)" {
		t.Errorf("count spec renders as %q", (&AggSpec{ID: "c"}).String())
	}
}

func TestFilterEval(t *testing.T) {
	r := relation.New("r", []relation.Attribute{
		{Name: "x", Type: relation.Double},
		{Name: "c", Type: relation.Category},
	})
	r.AppendRow(relation.FloatVal(5), relation.CatVal(2))
	r.AppendRow(relation.FloatVal(1), relation.CatVal(7))

	ge := Filter{Attr: "x", Op: GE, Threshold: 3}
	if !ge.Eval(r, 0, 0) || ge.Eval(r, 0, 1) {
		t.Fatal("GE filter wrong")
	}
	lt := Filter{Attr: "x", Op: LT, Threshold: 3}
	if lt.Eval(r, 0, 0) || !lt.Eval(r, 0, 1) {
		t.Fatal("LT filter wrong")
	}
	eq := Filter{Attr: "c", Op: EQ, Code: 7}
	if eq.Eval(r, 1, 0) || !eq.Eval(r, 1, 1) {
		t.Fatal("EQ filter wrong")
	}
	in := Filter{Attr: "c", Op: IN, Codes: []int32{1, 2, 3}}
	if !in.Eval(r, 1, 0) || in.Eval(r, 1, 1) {
		t.Fatal("IN filter wrong")
	}
}

func TestGroupKeyAndResults(t *testing.T) {
	k := MakeGroupKey(3, 5)
	if k[0] != 3 || k[1] != 5 || k[2] != -1 || k[3] != -1 {
		t.Fatalf("MakeGroupKey = %v", k)
	}
	scalar := &AggResult{Scalar: 10}
	if !scalar.IsScalar() || scalar.Value(NoGroup) != 10 {
		t.Fatal("scalar result broken")
	}
	grouped := &AggResult{Groups: map[GroupKey]float64{MakeGroupKey(1): 4}}
	if grouped.IsScalar() || grouped.Value(MakeGroupKey(1)) != 4 || grouped.Value(MakeGroupKey(2)) != 0 {
		t.Fatal("grouped result broken")
	}
	if scalar.ApproxEqual(grouped, 1e-9) {
		t.Fatal("scalar equal to grouped")
	}
	other := &AggResult{Groups: map[GroupKey]float64{MakeGroupKey(1): 4 + 1e-12}}
	if !grouped.ApproxEqual(other, 1e-9) {
		t.Fatal("tolerant comparison failed")
	}
	other.Groups[MakeGroupKey(9)] = 5
	if grouped.ApproxEqual(other, 1e-9) {
		t.Fatal("missing group not detected")
	}
	zeroExtra := &AggResult{Groups: map[GroupKey]float64{MakeGroupKey(1): 4, MakeGroupKey(8): 0}}
	if !grouped.ApproxEqual(zeroExtra, 1e-9) {
		t.Fatal("zero-valued extra group should compare equal")
	}
}

func TestSnowflakeJoinTree(t *testing.T) {
	// Retailer-shaped snowflake: Inventory(locn,dateid,ksn,units) with
	// Items(ksn,...), Weather(locn,dateid,...), Stores(locn,...),
	// Demographics(zip,...) hanging off Stores(locn,zip).
	db := relation.NewDatabase()
	inv := db.NewRelation("Inventory", []relation.Attribute{
		{Name: "locn", Type: relation.Category},
		{Name: "dateid", Type: relation.Category},
		{Name: "ksn", Type: relation.Category},
		{Name: "units", Type: relation.Double},
	})
	db.NewRelation("Items", []relation.Attribute{
		{Name: "ksn", Type: relation.Category},
		{Name: "prize", Type: relation.Double},
	})
	db.NewRelation("Weather", []relation.Attribute{
		{Name: "locn", Type: relation.Category},
		{Name: "dateid", Type: relation.Category},
		{Name: "maxtemp", Type: relation.Double},
	})
	stores := db.NewRelation("Stores", []relation.Attribute{
		{Name: "locn", Type: relation.Category},
		{Name: "zip", Type: relation.Category},
	})
	db.NewRelation("Demographics", []relation.Attribute{
		{Name: "zip", Type: relation.Category},
		{Name: "population", Type: relation.Double},
	})
	inv.Grow(10)
	stores.Grow(2)

	j := NewJoin(db.Relations()...)
	if !j.IsAcyclic() {
		t.Fatal("snowflake reported cyclic")
	}
	jt, err := j.BuildJoinTree("Inventory")
	if err != nil {
		t.Fatal(err)
	}
	if jt.Root.Rel.Name != "Inventory" || len(jt.Root.Children) != 3 {
		t.Fatalf("unexpected tree shape: root %s with %d children", jt.Root.Rel.Name, len(jt.Root.Children))
	}
	// Weather joins on the composite (dateid, locn) key.
	for _, c := range jt.Root.Children {
		if c.Rel.Name == "Weather" {
			if len(c.JoinAttrs) != 2 {
				t.Fatalf("Weather edge = %v", c.JoinAttrs)
			}
		}
		if c.Rel.Name == "Stores" {
			if len(c.Children) != 1 || c.Children[0].Rel.Name != "Demographics" {
				t.Fatalf("Demographics not under Stores: %+v", c.Children)
			}
		}
	}
	vo := BuildVarOrder(jt)
	if w := vo.FactorizationWidth(); w != 1 {
		t.Fatalf("snowflake factorization width = %d, want 1\n%s", w, vo)
	}
	if len(vo.Vars()) != len(j.Attrs()) {
		t.Fatalf("var order covers %d attrs, join has %d", len(vo.Vars()), len(j.Attrs()))
	}
}

// SubtreeAttrs returns the set of attribute names appearing in the
// subtree rooted at n.
func (n *TreeNode) SubtreeAttrs() map[string]bool {
	out := make(map[string]bool)
	var walk func(m *TreeNode)
	walk = func(m *TreeNode) {
		for _, a := range m.Rel.Attrs() {
			out[a.Name] = true
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}
