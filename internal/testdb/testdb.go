// Package testdb builds small deterministic databases used by tests and
// examples across the repository: the paper's Figure 7 running example,
// randomized star/snowflake schemas for equivalence testing between the
// classical engine, LMFAO, the factorized engine, and the IVM
// strategies, and seeded histories of inserts, deletes, updates,
// flushes and replans (history.go) with the nested-loop recompute they
// are checked against (oracle.go). Only tests and examples import it.
package testdb

import (
	"fmt"

	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// Figure7 returns the Orders/Dish/Items database of the paper's Figure 7
// and its natural join.
func Figure7() (*relation.Database, *query.Join) {
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
	c, d, di, it := db.Dict("customer"), db.Dict("day"), db.Dict("dish"), db.Dict("item")
	orders.AppendRow(relation.CatVal(c.Code("Elise")), relation.CatVal(d.Code("Monday")), relation.CatVal(di.Code("burger")))
	orders.AppendRow(relation.CatVal(c.Code("Elise")), relation.CatVal(d.Code("Friday")), relation.CatVal(di.Code("burger")))
	orders.AppendRow(relation.CatVal(c.Code("Steve")), relation.CatVal(d.Code("Friday")), relation.CatVal(di.Code("hotdog")))
	orders.AppendRow(relation.CatVal(c.Code("Joe")), relation.CatVal(d.Code("Friday")), relation.CatVal(di.Code("hotdog")))
	dish.AppendRow(relation.CatVal(di.Code("burger")), relation.CatVal(it.Code("patty")))
	dish.AppendRow(relation.CatVal(di.Code("burger")), relation.CatVal(it.Code("onion")))
	dish.AppendRow(relation.CatVal(di.Code("burger")), relation.CatVal(it.Code("bun")))
	dish.AppendRow(relation.CatVal(di.Code("hotdog")), relation.CatVal(it.Code("bun")))
	dish.AppendRow(relation.CatVal(di.Code("hotdog")), relation.CatVal(it.Code("onion")))
	dish.AppendRow(relation.CatVal(di.Code("hotdog")), relation.CatVal(it.Code("sausage")))
	items.AppendRow(relation.CatVal(it.Code("patty")), relation.FloatVal(6))
	items.AppendRow(relation.CatVal(it.Code("onion")), relation.FloatVal(2))
	items.AppendRow(relation.CatVal(it.Code("bun")), relation.FloatVal(2))
	items.AppendRow(relation.CatVal(it.Code("sausage")), relation.FloatVal(4))
	return db, query.NewJoin(orders, dish, items)
}

// StarSpec configures RandomStar.
type StarSpec struct {
	Seed     uint64
	FactRows int
	// DimRows lists the cardinality of each dimension table; dimension i
	// joins the fact table on key attribute k<i>.
	DimRows []int
	// DanglingDims, when true, gives dimension keys a larger domain than
	// the dimension tables populate, so some fact rows have no join
	// partner — exercising the zero-contribution paths of the engines.
	DanglingDims bool
	// Snowflake, when true, hangs a sub-dimension off dimension 0
	// (joining on attribute sk0), turning the star into a snowflake.
	Snowflake bool
}

// RandomStar builds a randomized star (or snowflake) schema:
//
//	Fact(k0..k{d-1}, fx, fy)        FactRows rows
//	Dim<i>(k<i>, d<i>x, d<i>g)      DimRows[i] rows
//	Sub0(sk0, s0x)                  (snowflake only; Dim0 gains sk0)
//
// fx, fy, d<i>x, s0x are continuous; d<i>g are categorical with a small
// domain. Returns the database, the join, and a mixed feature list.
func RandomStar(spec StarSpec) (*relation.Database, *query.Join, []string, []string) {
	src := xrand.New(spec.Seed)
	db := relation.NewDatabase()
	d := len(spec.DimRows)

	factAttrs := make([]relation.Attribute, 0, d+2)
	for i := 0; i < d; i++ {
		factAttrs = append(factAttrs, relation.Attribute{Name: fmt.Sprintf("k%d", i), Type: relation.Category})
	}
	factAttrs = append(factAttrs,
		relation.Attribute{Name: "fx", Type: relation.Double},
		relation.Attribute{Name: "fy", Type: relation.Double},
	)
	fact := db.NewRelation("Fact", factAttrs)

	cont := []string{"fx", "fy"}
	var cat []string
	rels := []*relation.Relation{fact}
	for i := 0; i < d; i++ {
		attrs := []relation.Attribute{
			{Name: fmt.Sprintf("k%d", i), Type: relation.Category},
			{Name: fmt.Sprintf("d%dx", i), Type: relation.Double},
			{Name: fmt.Sprintf("d%dg", i), Type: relation.Category},
		}
		if spec.Snowflake && i == 0 {
			attrs = append(attrs, relation.Attribute{Name: "sk0", Type: relation.Category})
		}
		dim := db.NewRelation(fmt.Sprintf("Dim%d", i), attrs)
		rows := spec.DimRows[i]
		start := dim.Grow(rows)
		for r := start; r < start+rows; r++ {
			dim.Col(0).C[r] = int32(r) // key = row id
			dim.Col(1).F[r] = src.Float64()*4 - 2
			dim.Col(2).C[r] = int32(src.Intn(4))
			if spec.Snowflake && i == 0 {
				dim.Col(3).C[r] = int32(src.Intn(5))
			}
		}
		cont = append(cont, fmt.Sprintf("d%dx", i))
		cat = append(cat, fmt.Sprintf("d%dg", i))
		rels = append(rels, dim)
	}
	if spec.Snowflake {
		sub := db.NewRelation("Sub0", []relation.Attribute{
			{Name: "sk0", Type: relation.Category},
			{Name: "s0x", Type: relation.Double},
		})
		start := sub.Grow(5)
		for r := start; r < start+5; r++ {
			sub.Col(0).C[r] = int32(r)
			sub.Col(1).F[r] = src.Float64()
		}
		cont = append(cont, "s0x")
		rels = append(rels, sub)
	}

	start := fact.Grow(spec.FactRows)
	for r := start; r < start+spec.FactRows; r++ {
		for i := 0; i < d; i++ {
			domain := spec.DimRows[i]
			if spec.DanglingDims {
				domain += 1 + domain/3
			}
			fact.Col(i).C[r] = int32(src.Intn(domain))
		}
		fact.Col(d).F[r] = src.Float64() * 10
		fact.Col(d + 1).F[r] = src.Float64()*2 - 1
	}

	return db, query.NewJoin(rels...), cont, cat
}
