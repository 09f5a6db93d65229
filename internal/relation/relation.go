// Package relation implements the in-memory relational substrate used by
// every other component in this repository: columnar relations with
// dictionary-encoded categorical attributes, schemas, databases with
// shared attribute dictionaries, CSV import/export, sorting, and hash
// indexes on join attributes.
//
// Design decisions that the rest of the system leans on:
//
//   - Two value kinds only. Continuous attributes are float64 columns;
//     everything else (ids, cities, categories) is dictionary-encoded into
//     dense int32 codes. This is the sparse-tensor-friendly representation
//     of Abo Khamis et al. (PODS'18): categorical values are never one-hot
//     encoded, they stay as codes and aggregates group by them.
//
//   - Natural-join semantics by attribute name. Attributes with the same
//     name in different relations of one Database share a single Dict, so
//     their codes are directly comparable and a join key is just a pair of
//     int32 codes packed into a uint64.
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Type distinguishes the two column representations.
type Type uint8

const (
	// Double is a continuous numeric attribute stored as float64.
	Double Type = iota
	// Category is a discrete attribute stored as dictionary codes.
	Category
)

// String returns a human-readable type name.
func (t Type) String() string {
	switch t {
	case Double:
		return "double"
	case Category:
		return "category"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name string
	Type Type
}

// Dict is an order-preserving string interning table mapping categorical
// values to dense int32 codes. A Dict is shared by all relations of a
// Database that have an attribute with the same name, which makes codes
// join-compatible across relations.
type Dict struct {
	codes map[string]int32
	names []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]int32)}
}

// Code interns s and returns its code, allocating the next code if s is new.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := int32(len(d.names))
	d.codes[s] = c
	d.names = append(d.names, s)
	return c
}

// Lookup returns the code for s without interning.
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// LookupBytes is Lookup for a string held as bytes; it does not
// allocate.
//
//borg:noalloc
func (d *Dict) LookupBytes(b []byte) (int32, bool) {
	c, ok := d.codes[string(b)]
	return c, ok
}

// Name returns the string for code c. It panics if c was never allocated.
func (d *Dict) Name(c int32) string {
	return d.names[c]
}

// Len returns the number of distinct interned values.
func (d *Dict) Len() int { return len(d.names) }

// Column is a single typed column. Exactly one of F or C is non-nil,
// according to Type.
type Column struct {
	Type Type
	F    []float64
	C    []int32
	Dict *Dict // set when Type == Category
}

// Relation is a named columnar relation. The zero value is not usable;
// create relations through Database.NewRelation or New.
type Relation struct {
	Name  string
	attrs []Attribute
	byN   map[string]int
	cols  []Column
	rows  int
}

// New creates a stand-alone relation with fresh dictionaries for its
// categorical attributes. Prefer Database.NewRelation when the relation
// will participate in joins.
func New(name string, attrs []Attribute) *Relation {
	r := &Relation{Name: name, attrs: attrs, byN: make(map[string]int, len(attrs))}
	r.cols = make([]Column, len(attrs))
	for i, a := range attrs {
		if _, dup := r.byN[a.Name]; dup {
			panic(fmt.Sprintf("relation %s: duplicate attribute %s", name, a.Name))
		}
		r.byN[a.Name] = i
		r.cols[i].Type = a.Type
		if a.Type == Category {
			r.cols[i].Dict = NewDict()
		}
	}
	return r
}

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return r.rows }

// NumAttrs returns the number of attributes.
func (r *Relation) NumAttrs() int { return len(r.attrs) }

// Attrs returns the schema. The slice must not be modified.
func (r *Relation) Attrs() []Attribute { return r.attrs }

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	if i, ok := r.byN[name]; ok {
		return i
	}
	return -1
}

// HasAttr reports whether the relation has an attribute with the given name.
func (r *Relation) HasAttr(name string) bool {
	_, ok := r.byN[name]
	return ok
}

// Col returns the i-th column. The column contents must be treated as
// read-only by callers outside this package unless they own the relation.
func (r *Relation) Col(i int) *Column { return &r.cols[i] }

// ColByName returns the named column, or nil.
//
//borg:vet-ok deadexport — relation, core, engine and factor tests read columns by name
func (r *Relation) ColByName(name string) *Column {
	i := r.AttrIndex(name)
	if i < 0 {
		return nil
	}
	return &r.cols[i]
}

// Float returns the float64 value at (col, row). The column must be Double.
func (r *Relation) Float(col, row int) float64 { return r.cols[col].F[row] }

// Cat returns the category code at (col, row). The column must be Category.
func (r *Relation) Cat(col, row int) int32 { return r.cols[col].C[row] }

// Value is a dynamically typed cell used by row-at-a-time interfaces
// (appending, CSV, tests). For Double columns F is meaningful; for
// Category columns C is.
type Value struct {
	F float64
	C int32
}

// FloatVal wraps a float64 cell.
func FloatVal(f float64) Value { return Value{F: f} }

// CatVal wraps a category code cell.
func CatVal(c int32) Value { return Value{C: c} }

// NormBits maps a float cell to the bit pattern it is matched, hashed
// and routed by: -0.0 folds into +0.0 (they compare equal, so they
// must hash equal — a delete then routes to its insert's shard and
// matches its row), and everything else keeps its exact bits, any NaN
// payload included. Matching on bits rather than == keeps even a NaN
// row locatable for retraction instead of immortal (NaN != NaN).
func NormBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// AppendRow appends one tuple given one Value per attribute, in schema order.
func (r *Relation) AppendRow(vals ...Value) {
	if len(vals) != len(r.attrs) {
		panic(fmt.Sprintf("relation %s: AppendRow got %d values, want %d", r.Name, len(vals), len(r.attrs)))
	}
	for i := range r.cols {
		if r.cols[i].Type == Double {
			r.cols[i].F = append(r.cols[i].F, vals[i].F)
		} else {
			r.cols[i].C = append(r.cols[i].C, vals[i].C)
		}
	}
	r.rows++
}

// Grow extends the relation by n zero-valued rows and returns the index of
// the first new row. Generators fill the column slices directly afterwards.
func (r *Relation) Grow(n int) int {
	start := r.rows
	for i := range r.cols {
		if r.cols[i].Type == Double {
			r.cols[i].F = append(r.cols[i].F, make([]float64, n)...)
		} else {
			r.cols[i].C = append(r.cols[i].C, make([]int32, n)...)
		}
	}
	r.rows += n
	return start
}

// SwapDeleteRow removes row i in O(1) by moving the last row into its
// slot and shrinking every column by one. Row ids are NOT stable across
// a call: the row formerly at NumRows()-1 is renumbered to i. Callers
// that keep row ids in side structures (hash indexes, views) must
// re-point the moved row's entries — see the incremental maintainers in
// internal/ivm for the fixup protocol. This is the swap-delete design
// (rather than tombstones): scans stay dense and never test liveness,
// which keeps the delete cost on the index-maintenance path instead of
// taxing every subsequent read.
func (r *Relation) SwapDeleteRow(i int) {
	last := r.rows - 1
	if i < 0 || i > last {
		panic(fmt.Sprintf("relation %s: SwapDeleteRow(%d) of %d rows", r.Name, i, r.rows))
	}
	for c := range r.cols {
		if r.cols[c].Type == Double {
			r.cols[c].F[i] = r.cols[c].F[last]
			r.cols[c].F = r.cols[c].F[:last]
		} else {
			r.cols[c].C[i] = r.cols[c].C[last]
			r.cols[c].C = r.cols[c].C[:last]
		}
	}
	r.rows = last
}

// CloneEmpty returns a relation with the same name, schema, and *shared*
// dictionaries, but no rows. Used by streaming experiments that replay a
// dataset tuple by tuple.
func (r *Relation) CloneEmpty() *Relation {
	c := &Relation{Name: r.Name, attrs: r.attrs, byN: r.byN}
	c.cols = make([]Column, len(r.cols))
	for i := range r.cols {
		c.cols[i].Type = r.cols[i].Type
		c.cols[i].Dict = r.cols[i].Dict
	}
	return c
}

// Row materializes row i as a slice of Values in schema order.
func (r *Relation) Row(i int) []Value { return r.AppendRowTo(make([]Value, 0, len(r.cols)), i) }

// AppendRowTo appends row i's Values, in schema order, to dst.
func (r *Relation) AppendRowTo(dst []Value, i int) []Value {
	for c := range r.cols {
		if r.cols[c].Type == Double {
			dst = append(dst, Value{F: r.cols[c].F[i]})
		} else {
			dst = append(dst, Value{C: r.cols[c].C[i]})
		}
	}
	return dst
}

// AppendRowFrom copies row i of src (which must have an identical schema)
// into r. Dictionaries must already be shared.
func (r *Relation) AppendRowFrom(src *Relation, i int) {
	for c := range r.cols {
		if r.cols[c].Type == Double {
			r.cols[c].F = append(r.cols[c].F, src.cols[c].F[i])
		} else {
			r.cols[c].C = append(r.cols[c].C, src.cols[c].C[i])
		}
	}
	r.rows++
}

// Database is a set of relations whose same-named categorical attributes
// share dictionaries, giving natural-join compatibility of codes.
type Database struct {
	rels  []*Relation
	byN   map[string]*Relation
	dicts map[string]*Dict
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{byN: make(map[string]*Relation), dicts: make(map[string]*Dict)}
}

// NewRelation creates a relation registered in the database. Categorical
// attributes reuse the database-wide dictionary for their name.
func (db *Database) NewRelation(name string, attrs []Attribute) *Relation {
	if _, dup := db.byN[name]; dup {
		panic(fmt.Sprintf("database: duplicate relation %s", name))
	}
	r := New(name, attrs)
	for i, a := range attrs {
		if a.Type != Category {
			continue
		}
		d, ok := db.dicts[a.Name]
		if !ok {
			d = r.cols[i].Dict
			db.dicts[a.Name] = d
		}
		r.cols[i].Dict = d
	}
	db.rels = append(db.rels, r)
	db.byN[name] = r
	return r
}

// Relations returns the registered relations in creation order.
func (db *Database) Relations() []*Relation { return db.rels }

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.byN[name] }

// Dict returns the shared dictionary for the named categorical attribute,
// or nil if no relation declared it.
func (db *Database) Dict(attr string) *Dict { return db.dicts[attr] }

// TotalRows sums the cardinalities of all relations.
//
//borg:vet-ok deadexport — relation and datagen tests check generated sizes with it
func (db *Database) TotalRows() int {
	n := 0
	for _, r := range db.rels {
		n += r.rows
	}
	return n
}

// FormatCell renders the cell at (col, row) as a string, decoding
// categories. Codes without a dictionary entry (raw-coded synthetic data)
// render as their decimal value.
func (r *Relation) FormatCell(col, row int) string {
	c := &r.cols[col]
	if c.Type == Double {
		return strconv.FormatFloat(c.F[row], 'g', -1, 64)
	}
	code := c.C[row]
	if int(code) >= c.Dict.Len() || code < 0 {
		return strconv.FormatInt(int64(code), 10)
	}
	return c.Dict.Name(code)
}
