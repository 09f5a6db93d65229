// Package borg is a Go library for structure-aware machine learning over
// relational data, reproducing the systems line of "The Relational Data
// Borg is Learning" (Olteanu, VLDB 2020): models are trained on batches
// of group-by aggregates evaluated directly over the joins of a database
// — the join result is never materialized.
//
// The facade covers the end-to-end flow of the paper's Figure 2 (bottom):
//
//	db := borg.NewDatabase()
//	sales := db.AddRelation("Sales", borg.Cat("item"), borg.Num("units"))
//	items := db.AddRelation("Items", borg.Cat("item"), borg.Num("price"))
//	... append rows ...
//	q, _ := db.Query("Sales", "Items")
//	model, _ := q.LinearRegression(borg.Features{
//	    Continuous:  []string{"price"},
//	}, "units", 1e-3)
//
// For continuous workloads, Query.ServeSharded starts a long-lived
// ShardedServer (one shard by default) that maintains the model's
// sufficient statistics incrementally under
// streamed inserts (F-IVM, Section 5.2) while serving snapshot-
// consistent statistics and freshly trained models to any number of
// concurrent readers; cmd/borg-serve exposes it over HTTP.
//
// Under the facade: internal/core is the LMFAO aggregate-batch engine,
// internal/ring the covariance ring, internal/ivm the incremental
// maintenance strategies, internal/serve the concurrent serving layer,
// internal/factor the factorized representations, and internal/ml the
// models. The experiment harness reproducing the paper's evaluation
// lives in internal/bench and cmd/borg-bench.
package borg

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"borg/internal/core"
	"borg/internal/datagen"
	"borg/internal/exec"
	"borg/internal/plan"
	"borg/internal/query"
	"borg/internal/relation"
)

// Field declares one attribute of a relation schema.
type Field struct {
	Name        string
	Categorical bool
}

// Num declares a continuous (float64) attribute.
func Num(name string) Field { return Field{Name: name} }

// Cat declares a categorical (dictionary-encoded) attribute. Attributes
// with equal names join across relations (natural-join semantics), so
// join keys must be categorical.
func Cat(name string) Field { return Field{Name: name, Categorical: true} }

// Database is a set of relations with shared attribute dictionaries.
type Database struct {
	db *relation.Database
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{db: relation.NewDatabase()}
}

// AddRelation declares a relation. It panics on duplicate names, like the
// underlying catalog.
func (d *Database) AddRelation(name string, fields ...Field) *Relation {
	attrs := make([]relation.Attribute, len(fields))
	for i, f := range fields {
		t := relation.Double
		if f.Categorical {
			t = relation.Category
		}
		attrs[i] = relation.Attribute{Name: f.Name, Type: t}
	}
	return &Relation{rel: d.db.NewRelation(name, attrs)}
}

// Relation is one table of a Database.
type Relation struct {
	rel *relation.Relation
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name }

// Rows returns the current cardinality.
func (r *Relation) Rows() int { return r.rel.NumRows() }

// Append adds one tuple. Continuous attributes take float64 (or int),
// categorical attributes take string values, which are interned in the
// shared dictionaries.
func (r *Relation) Append(values ...any) error {
	scratch := rowScratch.Get().(*[]relation.Value)
	defer rowScratch.Put(scratch)
	row, err := coerceRow(r.rel, values, (*scratch)[:0])
	*scratch = row
	if err != nil {
		return err
	}
	r.rel.AppendRow(row...)
	return nil
}

// rowScratch holds the rows the facade converts values into: a row is
// dead once the call it was converted for returns, because AppendRow
// and every ingest sink copy the values, so the next call reuses it.
var rowScratch = sync.Pool{New: func() any { return new([]relation.Value) }}

// coerceRow appends facade values (any common Go numeric type for
// continuous, string for categorical), converted into relation values
// in schema order, to dst — the conversion path shared by
// Relation.Append and ShardedServer.Insert/Delete/Update; every value
// goes through coerceCell, as every cell of IngestJSON does. The
// column's type is read first, so a string is not tried against the
// numeric kinds. Append remains a single-writer API (its row mutation
// happens outside any lock).
func coerceRow(r *relation.Relation, values []any, dst []relation.Value) ([]relation.Value, error) {
	if len(values) != r.NumAttrs() {
		return dst, arityErr(r, len(values))
	}
	for i, v := range values {
		c := cell{kind: cellOther}
		if r.Col(i).Type == relation.Category {
			if x, ok := v.(string); ok {
				c = cell{kind: cellStr, str: x}
			}
		} else if f, ok := asFloat(v); ok {
			c = cell{kind: cellNum, num: f}
		}
		val, refusal := coerceCell(r, i, c)
		if refusal != "" {
			got := fmt.Sprintf("%T", v)
			if refusal == nonFinite {
				got = fmt.Sprint(v)
			}
			return dst, fmt.Errorf(refusal, r.Attrs()[i].Name, got)
		}
		dst = append(dst, val)
	}
	return dst, nil
}

func arityErr(r *relation.Relation, got int) error {
	return fmt.Errorf("borg: %s has %d attributes, got %d values", r.Name, r.NumAttrs(), got)
}

// cell is one value on its way into a column: a number, a string — str
// from the ...any path, raw from the wire — or something else.
type cell struct {
	kind cellKind
	num  float64
	str  string
	raw  []byte
}

// Why coerceCell refuses a cell, as formats of the attribute's name and
// of what the caller got in its place.
const (
	wantString = "borg: attribute %s is categorical (want a string), got %s"
	wantNumber = "borg: attribute %s is continuous (want a number), got %s"
	nonFinite  = "borg: attribute %s: non-finite value %s is not storable"
)

// coerceCell is the per-cell rule of every ingest path: a number fits a
// continuous attribute if it is finite, a string a categorical one. The
// string is interned under the shared dictionary lock — looked up under
// the read lock, which is all a known category costs, so the entry
// points documented as safe for concurrent callers convert in parallel.
//
//borg:noalloc
func coerceCell(r *relation.Relation, i int, c cell) (v relation.Value, refusal string) {
	col := r.Col(i)
	switch {
	case c.kind == cellNum && col.Type == relation.Double:
		if math.IsNaN(c.num) || math.IsInf(c.num, 0) {
			// A NaN poisons every maintained sum and, being ≠ to
			// itself, could never be matched by a later Delete.
			return v, nonFinite
		}
		return relation.FloatVal(c.num), ""
	case c.kind == cellStr && col.Type == relation.Category:
		var code int32
		var known bool
		internMu.RLock()
		if c.raw != nil {
			code, known = col.Dict.LookupBytes(c.raw)
		} else {
			code, known = col.Dict.Lookup(c.str)
		}
		internMu.RUnlock()
		if !known {
			code = intern(col.Dict, c)
		}
		return relation.CatVal(code), ""
	case col.Type == relation.Category:
		return v, wantString
	}
	return v, wantNumber
}

// intern adds a category coerceCell did not find.
func intern(d *relation.Dict, c cell) int32 {
	if c.raw != nil {
		c.str = string(c.raw)
	}
	internMu.Lock()
	defer internMu.Unlock()
	return d.Code(c.str)
}

// asFloat widens any common Go numeric type to float64. Large uint64 /
// int64 values lose precision past 2⁵³ exactly as a float64 column
// would store them.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case int32:
		return float64(x), true
	case int16:
		return float64(x), true
	case int8:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint64:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint16:
		return float64(x), true
	case uint8:
		return float64(x), true
	}
	return 0, false
}

// Query is a natural join of relations — the feature-extraction query of
// the paper — ready for structure-aware learning.
type Query struct {
	db   *Database
	join *query.Join
	// Root pins the join-tree root (fact relation) and disables greedy
	// planning for this query: the planner keeps the static child order
	// instead of reordering by cardinality. Empty lets the planner pick
	// greedily — the largest relation, ties broken lexicographically by
	// name.
	Root string
	// Workers bounds the morsel-driven execution runtime's parallelism.
	// Query constructors set 2; values below 2 select the serial path.
	Workers int
	// MorselSize overrides the runtime's scan granularity (rows per
	// morsel). 0 is automatic; pin it to make results bitwise
	// reproducible across worker counts.
	MorselSize int
}

// Query builds the natural join of the named relations (all relations
// when none are named). It verifies acyclicity eagerly.
func (d *Database) Query(names ...string) (*Query, error) {
	var rels []*relation.Relation
	if len(names) == 0 {
		rels = d.db.Relations()
	} else {
		for _, n := range names {
			r := d.db.Relation(n)
			if r == nil {
				return nil, fmt.Errorf("borg: unknown relation %s", n)
			}
			rels = append(rels, r)
		}
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("borg: empty query")
	}
	j := query.NewJoin(rels...)
	if !j.IsAcyclic() {
		return nil, fmt.Errorf("borg: the join is cyclic; structure-aware evaluation requires an acyclic feature-extraction query")
	}
	return &Query{db: d, join: j, Workers: 2}, nil
}

// Features selects the model's features by attribute name.
type Features struct {
	Continuous  []string
	Categorical []string
}

func (f Features) core() []core.Feature {
	var out []core.Feature
	for _, c := range f.Continuous {
		out = append(out, core.Feature{Attr: c})
	}
	for _, g := range f.Categorical {
		out = append(out, core.Feature{Attr: g, Categorical: true})
	}
	return out
}

// plan resolves the query's execution plan through the planning layer:
// a pinned Root keeps the legacy static order; otherwise the planner
// picks root and child order greedily from live cardinalities. A pinned
// root that names no relation of the join is rejected here, with the
// available relations spelled out, instead of surfacing as an opaque
// join-tree failure downstream.
func (q *Query) plan() (*plan.Plan, error) {
	if q.Root != "" {
		for _, r := range q.join.Relations {
			if r.Name == q.Root {
				return plan.New(q.join, plan.Options{PinnedRoot: q.Root, Static: true})
			}
		}
		return nil, fmt.Errorf("borg: root %s is not a relation of the join; the join's relations are %s", q.Root, strings.Join(q.relationNames(), ", "))
	}
	return plan.New(q.join, plan.Options{})
}

func (q *Query) tree() (*query.JoinTree, error) {
	p, err := q.plan()
	if err != nil {
		return nil, err
	}
	return p.Tree, nil
}

// rootOrLargest resolves the pinned join-tree root, defaulting to the
// planner's greedy choice — the largest relation (the fact table, in
// the evaluated schemas), ties broken lexicographically by name so the
// root is deterministic across runs. Shared by the streaming and
// serving facades.
func (q *Query) rootOrLargest() (string, error) {
	p, err := q.plan()
	if err != nil {
		return "", err
	}
	return p.Root, nil
}

// relationNames lists the join's relations in declaration order.
func (q *Query) relationNames() []string {
	out := make([]string, len(q.join.Relations))
	for i, r := range q.join.Relations {
		out[i] = r.Name
	}
	return out
}

func (q *Query) opts() core.Options {
	return core.Options{Specialize: true, Share: true, Runtime: q.runtime()}
}

// runtime resolves the query's exec.Runtime — the single parallelism
// config threaded from the facade through core, engine, and ivm.
func (q *Query) runtime() exec.Runtime {
	w := q.Workers
	if w <= 0 {
		w = 1
	}
	return exec.Runtime{Workers: w, MorselSize: q.MorselSize}
}

// Dataset wraps one of the built-in synthetic evaluation datasets with
// its default feature lists.
type Dataset struct {
	*Query
	Name     string
	Feats    Features
	Response string
	GridAttr string
	inner    *datagen.Dataset
}

// GenerateDataset builds a synthetic evaluation dataset ("retailer",
// "favorita", "yelp", "tpcds") at the given seed and scale factor.
func GenerateDataset(name string, seed uint64, sf float64) (*Dataset, error) {
	d, err := datagen.ByName(name, seed, sf)
	if err != nil {
		return nil, err
	}
	wrapped := &Database{db: d.DB}
	q := &Query{db: wrapped, join: d.Join, Root: d.Root, Workers: 2}
	return &Dataset{
		Query:    q,
		Name:     d.Name,
		Feats:    Features{Continuous: d.Cont, Categorical: d.Cat},
		Response: d.Response,
		GridAttr: d.GridAttr,
		inner:    d,
	}, nil
}

// Database exposes the dataset's relations (for streaming replays and
// CSV export).
func (d *Dataset) Database() *Database { return d.Query.db }

// Relation returns a relation of the database by name, or nil.
func (d *Database) Relation(name string) *Relation {
	r := d.db.Relation(name)
	if r == nil {
		return nil
	}
	return &Relation{rel: r}
}
