package main

import (
	"strconv"

	"borg"
	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// table is every row of one relation a workload may send, held twice:
// boxed as facade values, so that generating and sending an op allocates
// nothing in the generator, and as ring values for the layer replay that
// bypasses the facade.
type table struct {
	name   string
	fields []borg.Field
	boxed  [][]any
	vals   [][]relation.Value
	// versions is 2 for a dimension table whose rows the churn updates:
	// row i+n is row i with one continuous attribute nudged, and an
	// update flips a row between its two versions. 1 otherwise.
	versions int
	n        int // rows per version
}

// dataset is the generated input of one workload: the source join (for
// the replay maintainer), its tables in preload order (dimensions before
// the fact table) and the statistics the server maintains.
type dataset struct {
	join     *query.Join
	root     string // pinned join-tree root; "" leaves it to the planner
	tables   []*table
	fact     int // index of the fact table in tables
	base     int // fact rows preloaded before the measurement starts
	features []string
	response string
	// partition names the attribute a partitioned server routes by; an
	// update of a fact row then keeps its value, as such servers demand.
	partition string
}

// newTable boxes the rows of rel. nudge names the continuous attribute
// whose value differs in a row's second version ("" for one version).
func newTable(rel *relation.Relation, nudge string) *table {
	t := &table{name: rel.Name, versions: 1, n: rel.NumRows()}
	for _, a := range rel.Attrs() {
		t.fields = append(t.fields, borg.Field{Name: a.Name, Categorical: a.Type == relation.Category})
	}
	// One boxed string per dictionary code, shared by every row using it.
	names := make([][]any, rel.NumAttrs())
	for c := range names {
		if col := rel.Col(c); col.Type == relation.Category {
			names[c] = make([]any, col.Dict.Len())
			for code := range names[c] {
				names[c][code] = col.Dict.Name(int32(code))
			}
		}
	}
	add := func(vals []relation.Value) {
		row := make([]any, len(vals))
		for c, v := range vals {
			if names[c] != nil {
				row[c] = names[c][v.C]
			} else {
				row[c] = v.F
			}
		}
		t.vals = append(t.vals, vals)
		t.boxed = append(t.boxed, row)
	}
	for i := 0; i < t.n; i++ {
		add(rel.Row(i))
	}
	if nudge != "" {
		t.versions = 2
		c := rel.AttrIndex(nudge)
		for i := 0; i < t.n; i++ {
			vals := rel.Row(i)
			vals[c].F = vals[c].F*1.0625 + 0.5
			add(vals)
		}
	}
	return t
}

func fromDatagen(d *datagen.Dataset, nudges map[string]string, base int) *dataset {
	ds := &dataset{join: d.Join, root: d.Root, response: d.Response}
	for _, name := range d.StreamOrder {
		if name == d.Root {
			ds.fact = len(ds.tables)
		}
		ds.tables = append(ds.tables, newTable(d.DB.Relation(name), nudges[name]))
	}
	ds.base = ds.tables[ds.fact].n
	if base > 0 && base < ds.base {
		ds.base = base
	}
	return ds
}

// retailerDataset is the paper's Retailer schema with the whole
// Inventory table preloaded. Dimension updates go to Weather, the large
// dimension (a reading per store and day, about three facts each). An
// update of a Stores, Item or Demographics row rewrites thousands of
// join results in one op and allocates accordingly; at a 2% share a run
// sees a handful of them, and how many fall in it then decides its
// allocations, peak memory and tail latency.
func retailerDataset(seed uint64, sf float64) *dataset {
	d := datagen.Retailer(seed, sf)
	ds := fromDatagen(d, map[string]string{"Weather": "maxtemp"}, 0)
	ds.features = append(append([]string(nil), d.Cont...), d.Response)
	return ds
}

// tenantDataset is the store-partitioned Tenant schema sized by its
// dimension tables (stores × 25 catalog items = live cofactor groups);
// only baseSales fact rows are preloaded, the rest feed the inserts.
func tenantDataset(seed uint64, stores, baseSales int) *dataset {
	d := datagen.Tenant(seed, float64(stores)/64)
	ds := fromDatagen(d, nil, baseSales)
	ds.features = []string{"price", "sellarea", "footfall", "units", "item", "store"}
	ds.partition = "store"
	return ds
}

// httpDataset is borg-serve's demo schema, Sales(item, store, units) ⋈
// Items(item, store, price) ⋈ Stores(store, area), with every (item,
// store) pair priced so that each sale joins.
func httpDataset(seed uint64, stores, items, sales, baseSales int) *dataset {
	src := xrand.New(seed)
	db := relation.NewDatabase()
	cat := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: relation.Category} }
	num := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: relation.Double} }
	salesRel := db.NewRelation("Sales", []relation.Attribute{cat("item"), cat("store"), num("units")})
	itemsRel := db.NewRelation("Items", []relation.Attribute{cat("item"), cat("store"), num("price")})
	storesRel := db.NewRelation("Stores", []relation.Attribute{cat("store"), num("area")})
	for i := 0; i < items; i++ {
		db.Dict("item").Code("i" + strconv.Itoa(i))
	}
	for s := 0; s < stores; s++ {
		db.Dict("store").Code("s" + strconv.Itoa(s))
	}
	price := make([]float64, stores*items)
	area := make([]float64, stores)
	for s := 0; s < stores; s++ {
		area[s] = 50 + float64(src.Intn(4000))/8
		storesRel.AppendRow(relation.CatVal(int32(s)), relation.FloatVal(area[s]))
		for i := 0; i < items; i++ {
			price[s*items+i] = 1 + float64(src.Intn(800))/16
			itemsRel.AppendRow(relation.CatVal(int32(i)), relation.CatVal(int32(s)), relation.FloatVal(price[s*items+i]))
		}
	}
	storeZipf := xrand.NewZipf(src, 1.1, stores)
	for r := 0; r < sales; r++ {
		s, i := storeZipf.Next(), src.Intn(items)
		// Dyadic values keep the JSON text short and exact.
		u := float64(int((20-0.3*price[s*items+i]+0.004*area[s]+2*src.NormFloat64())*16)) / 16
		salesRel.AppendRow(relation.CatVal(int32(i)), relation.CatVal(int32(s)), relation.FloatVal(u))
	}
	return &dataset{
		join:      query.NewJoin(salesRel, itemsRel, storesRel),
		tables:    []*table{newTable(storesRel, ""), newTable(itemsRel, ""), newTable(salesRel, "")},
		fact:      2,
		base:      baseSales,
		features:  []string{"units", "price", "area"},
		response:  "units",
		partition: "store",
	}
}

// facadeQuery declares the dataset's schema on a fresh facade database,
// appends the rows fill yields (fill may be nil) and returns the join.
func (ds *dataset) facadeQuery(fill func(t int, add func(row []any) error) error) (*borg.Query, error) {
	db := borg.NewDatabase()
	for i, t := range ds.tables {
		rel := db.AddRelation(t.name, t.fields...)
		if fill != nil {
			if err := fill(i, func(row []any) error { return rel.Append(row...) }); err != nil {
				return nil, err
			}
		}
	}
	// Join in the source join's order: the planner breaks ties by it.
	names := make([]string, len(ds.join.Relations))
	for i, r := range ds.join.Relations {
		names[i] = r.Name
	}
	q, err := db.Query(names...)
	if err != nil {
		return nil, err
	}
	q.Root = ds.root
	return q, nil
}

const (
	opInsert uint8 = iota
	opDelete
	opUpdate
)

// op is one generated operation: row ids into tables[tab], so an op is
// sixteen bytes and making one allocates nothing.
type op struct {
	kind uint8
	tab  uint8
	row  int32 // the inserted row, the delete target, or an update's new row
	old  int32 // the row an update retracts
}

// units is what the op adds to a snapshot's Inserts()+Deletes().
func (o op) units() int {
	if o.kind == opUpdate {
		return 2
	}
	return 1
}

// mix gives the share of each op kind; the shares sum to 1. dim is the
// share of updates that go to a dimension row in place of a fact row.
type mix struct{ insert, delete, update, dim float64 }

// churnGen generates a churn stream over one dataset. Every delete and
// every update targets a tuple that is live once the ops before it have
// been applied in order, so a single FIFO producer never fails an op.
// Inserts re-send rows drawn uniformly from the generated fact table
// (the server keeps a multiset), which keeps the key skew of the
// dataset; with insert == delete the live set stays the size it had.
type churnGen struct {
	ds   *dataset
	rng  *xrand.Source
	cuts [3]float64
	cand []int32 // fact rows this generator may insert
	// With a partition attribute: each fact row's partition value and the
	// candidates sharing it, from which an update draws its new row.
	partOf  []int32
	byPart  [][]int32
	live    []int32 // fact rows live, with repetition
	dims    []int   // tables that take updates
	ver     [][]uint8
	dimRows int // rows over all of dims
	// tallies of tuple halves, as a snapshot counts them
	inserts, deletes uint64
	ops              int64
}

// newChurnGen returns generator part of parts: it owns the fact rows r
// with r%parts == part, preloaded ones included, so that generators
// driving separate connections never delete each other's tuples.
func newChurnGen(ds *dataset, seed uint64, m mix, part, parts int) *churnGen {
	g := &churnGen{ds: ds, rng: xrand.New(seed ^ uint64(part+1)*0x9E3779B97F4A7C15)}
	g.cuts = [3]float64{m.insert, m.insert + m.delete, m.insert + m.delete + m.update}
	fact := ds.tables[ds.fact]
	for r := part; r < fact.n; r += parts {
		g.cand = append(g.cand, int32(r))
	}
	if ds.partition != "" {
		c := 0
		for i, f := range fact.fields {
			if f.Name == ds.partition {
				c = i
			}
		}
		g.partOf = make([]int32, fact.n)
		for r, vals := range fact.vals[:fact.n] {
			g.partOf[r] = vals[c].C
		}
		for _, r := range g.cand {
			for int(g.partOf[r]) >= len(g.byPart) {
				g.byPart = append(g.byPart, nil)
			}
			g.byPart[g.partOf[r]] = append(g.byPart[g.partOf[r]], r)
		}
	}
	// Room for the live set to wander without growing the slice while
	// the run is measured.
	g.live = make([]int32, 0, ds.base/parts+1<<20)
	for r := part; r < ds.base; r += parts {
		g.live = append(g.live, int32(r))
	}
	if m.dim > 0 {
		for i, t := range ds.tables {
			if t.versions == 2 {
				g.dims = append(g.dims, i)
				g.ver = append(g.ver, make([]uint8, t.n))
				g.dimRows += t.n
			}
		}
	}
	return g
}

// next generates the following op and records its effect.
func (g *churnGen) next() op {
	g.ops++
	u := g.rng.Float64()
	fact := uint8(g.ds.fact)
	switch {
	case u < g.cuts[0] || len(g.live) == 0:
		r := g.cand[g.rng.Intn(len(g.cand))]
		g.live = append(g.live, r)
		g.inserts++
		return op{kind: opInsert, tab: fact, row: r}
	case u < g.cuts[1]:
		p := g.rng.Intn(len(g.live))
		r := g.live[p]
		g.live[p] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.deletes++
		return op{kind: opDelete, tab: fact, row: r}
	}
	g.inserts++
	g.deletes++
	if u < g.cuts[2] || len(g.dims) == 0 {
		p := g.rng.Intn(len(g.live))
		old := g.live[p]
		from := g.cand
		if g.byPart != nil {
			from = g.byPart[g.partOf[old]]
		}
		r := from[g.rng.Intn(len(from))]
		g.live[p] = r
		return op{kind: opUpdate, tab: fact, row: r, old: old}
	}
	// Uniform over the rows of the tables that take updates.
	d, i := 0, g.rng.Intn(g.dimRows)
	for i >= g.ds.tables[g.dims[d]].n {
		i -= g.ds.tables[g.dims[d]].n
		d++
	}
	t := g.ds.tables[g.dims[d]]
	old := int32(i) + int32(g.ver[d][i])*int32(t.n)
	g.ver[d][i] ^= 1
	return op{kind: opUpdate, tab: uint8(g.dims[d]), row: int32(i) + int32(g.ver[d][i])*int32(t.n), old: old}
}

// hash folds an op into an FNV-1a stream hash.
func (o op) hash(h uint64) uint64 {
	for _, b := range [...]uint64{uint64(o.kind), uint64(o.tab), uint64(uint32(o.row)), uint64(uint32(o.old))} {
		h = (h ^ b) * 1099511628211
	}
	return h
}

// send applies one op through the facade.
func send(srv borg.Ingestor, ds *dataset, o op) error {
	t := ds.tables[o.tab]
	switch o.kind {
	case opInsert:
		return srv.Insert(t.name, t.boxed[o.row]...)
	case opDelete:
		return srv.Delete(t.name, t.boxed[o.row]...)
	}
	return srv.Update(t.name, t.boxed[o.old], t.boxed[o.row])
}

// ivmOp is the same op as the maintainers take it, below the facade.
func ivmOp(ds *dataset, o op) ivm.Op {
	t := ds.tables[o.tab]
	switch o.kind {
	case opInsert:
		return ivm.Op{Kind: ivm.OpInsert, Tuple: ivm.Tuple{Rel: t.name, Values: t.vals[o.row]}}
	case opDelete:
		return ivm.Op{Kind: ivm.OpDelete, Tuple: ivm.Tuple{Rel: t.name, Values: t.vals[o.row]}}
	}
	return ivm.Op{Kind: ivm.OpUpdate, Tuple: ivm.Tuple{Rel: t.name, Values: t.vals[o.row]}, Old: ivm.Tuple{Rel: t.name, Values: t.vals[o.old]}}
}

// preload yields the ops that load the dataset before timing starts:
// every dimension row in its first version, then the base fact rows.
func (ds *dataset) preload(yield func(op) error) error {
	for i, t := range ds.tables {
		n := t.n
		if i == ds.fact {
			n = ds.base
		}
		for r := 0; r < n; r++ {
			if err := yield(op{kind: opInsert, tab: uint8(i), row: int32(r)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// preloadRows is the number of rows preload sends.
func (ds *dataset) preloadRows() int {
	n := 0
	for i, t := range ds.tables {
		if i == ds.fact {
			n += ds.base
		} else {
			n += t.n
		}
	}
	return n
}

// survivors yields, per table, the rows live after the generators'
// streams: the oracle recomputes the statistics from them.
func (ds *dataset) survivors(gens []*churnGen) func(t int, add func(row []any) error) error {
	return func(ti int, add func(row []any) error) error {
		t := ds.tables[ti]
		if ti == ds.fact {
			for _, g := range gens {
				for _, r := range g.live {
					if err := add(t.boxed[r]); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for i := 0; i < t.n; i++ {
			r := i
			for _, g := range gens {
				for d, di := range g.dims {
					if di == ti && g.ver[d][i] == 1 {
						r = i + t.n
					}
				}
			}
			if err := add(t.boxed[r]); err != nil {
				return err
			}
		}
		return nil
	}
}
