package relation

import "errors"

// Join keys in this system are tuples of at most two categorical codes.
// They pack losslessly into a uint64, which keeps hash maps on the hot
// paths allocation-free. Feature-extraction queries over the evaluated
// schemas (Retailer, Favorita, Yelp, TPC-DS) join on one attribute
// (ids) or two (location+date composite keys), so two slots suffice;
// wider keys would be a schema error caught at plan time.

// PackKey1 packs a single categorical code into a join key.
func PackKey1(a int32) uint64 {
	return uint64(uint32(a))
}

// PackKey2 packs two categorical codes into a join key.
func PackKey2(a, b int32) uint64 {
	return uint64(uint32(a)) | uint64(uint32(b))<<32
}

// UnpackKey2 splits a two-code key back into its components.
func UnpackKey2(k uint64) (int32, int32) {
	return int32(uint32(k)), int32(uint32(k >> 32))
}

// errWideKey is what every key constructor panics with; a variable, so
// that panicking with it boxes nothing.
var errWideKey = errors.New("relation: join keys wider than 2 attributes are not supported")

// packKey is the one place the key width is decided: n codes, of which
// c0 and c1 are the first two. Zero columns yield the constant key 0,
// which models a cross-product edge.
func packKey(n int, c0, c1 int32) uint64 {
	switch n {
	case 0:
		return 0
	case 1:
		return PackKey1(c0)
	case 2:
		return PackKey2(c0, c1)
	}
	panic(errWideKey)
}

// Key returns the packed join key of a stored row over the given
// categorical column positions (at most 2 of them).
//
//borg:noalloc
func (r *Relation) Key(cols []int, row int) uint64 {
	var c [2]int32
	for i, col := range cols[:min(len(cols), 2)] {
		c[i] = r.cols[col].C[row]
	}
	return packKey(len(cols), c[0], c[1])
}

// KeyOfVals returns the key a row with these values would have under
// Key: the same codes, read from a value tuple in schema order.
func KeyOfVals(cols []int, vals []Value) uint64 {
	var c [2]int32
	for i, col := range cols[:min(len(cols), 2)] {
		c[i] = vals[col].C
	}
	return packKey(len(cols), c[0], c[1])
}

// KeyFunc returns Key with the column slices hoisted, for scans that
// evaluate it on every row of the relation.
func (r *Relation) KeyFunc(cols []int) func(row int) uint64 {
	switch len(cols) {
	case 0:
		return func(int) uint64 { return 0 }
	case 1:
		c := r.cols[cols[0]].C
		return func(row int) uint64 { return PackKey1(c[row]) }
	case 2:
		c0, c1 := r.cols[cols[0]].C, r.cols[cols[1]].C
		return func(row int) uint64 { return PackKey2(c0[row], c1[row]) }
	}
	panic(errWideKey)
}

// Index maps a key — a packed join key, or a row hash — to the row ids
// holding it. The ids of one key form a doubly linked chain, headed in a
// KeyTable and linked by id, so insert, remove and repoint touch a
// constant number of links whatever the chain length, and a new key
// costs a table slot: no bucket is ever allocated. A row id is held
// under at most one key at a time, and its entry records that key, which
// answers an absent entry in O(1) — 16 bytes per id in all. Insert puts
// an id at the head of its key's chain, and BuildIndex inserts rows last
// to first, so it lists a key's rows in ascending id; a chain's order is
// otherwise a deterministic function of the operation sequence. The
// zero value is an empty index on no columns.
type Index struct {
	cols []int
	head KeyTable
	ents []entry // by id
}

// entry is an id's place in its key's chain: -1 ends the chain on either
// side, and an id held under no key has prev unheld.
type entry struct {
	key        uint64
	prev, next int32
}

const unheld = -2

// BuildIndex indexes the relation on the given categorical columns, each
// key's rows chained in ascending id. The entries are sized to the rows,
// the key table grows with the keys.
func (r *Relation) BuildIndex(cols []int) *Index {
	key := r.KeyFunc(cols)
	ix := &Index{cols: cols, ents: make([]entry, 0, r.rows)}
	for i := r.rows - 1; i >= 0; i-- {
		ix.Insert(key(i), int32(i))
	}
	return ix
}

// NewIndex returns an empty index on the given columns, to be maintained
// incrementally with Insert as rows are appended.
func NewIndex(cols []int) *Index { return &Index{cols: cols} }

// Insert records that row id, held under no key so far, carries key k:
// it becomes the head of k's chain.
func (ix *Index) Insert(k uint64, id int32) {
	ix.cover(id)
	next, ok := ix.head.Get(k)
	if ok {
		ix.ents[next].prev = id
	} else {
		next = -1
	}
	ix.head.Set(k, id)
	ix.ents[id] = entry{key: k, prev: -1, next: next}
}

// cover grows the entries to hold id.
func (ix *Index) cover(id int32) {
	for int(id) >= len(ix.ents) {
		ix.ents = append(ix.ents, entry{prev: unheld})
	}
}

// held reports whether row id is held under key k.
func (ix *Index) held(k uint64, id int32) bool {
	return uint(id) < uint(len(ix.ents)) && ix.ents[id].prev != unheld && ix.ents[id].key == k
}

// drop frees id's entry; the last entry goes with it.
func (ix *Index) drop(id int32) {
	ix.ents[id].prev = unheld
	if int(id) == len(ix.ents)-1 {
		ix.ents = ix.ents[:id]
	}
}

// Remove forgets that row id carries key k, reporting whether the entry
// existed; an absent entry — a free id, or a held one under another key
// — changes nothing. A key whose chain drains leaves the table, so a
// long-lived index under churn does not accumulate dead keys.
//
//borg:noalloc
func (ix *Index) Remove(k uint64, id int32) bool {
	if !ix.held(k, id) {
		return false
	}
	e := ix.ents[id]
	switch {
	case e.prev >= 0:
		ix.ents[e.prev].next = e.next
	case e.next >= 0:
		ix.head.Set(k, e.next)
	default:
		ix.head.Delete(k)
	}
	if e.next >= 0 {
		ix.ents[e.next].prev = e.prev
	}
	ix.drop(id)
	return true
}

// Repoint renames the entry (k, from) to (k, to) in place, keeping its
// place in the chain — what a swap-delete needs when the relation's last
// row moves into a freed slot. to must be held under no key. It reports
// whether the entry existed.
//
//borg:noalloc
func (ix *Index) Repoint(k uint64, from, to int32) bool {
	if !ix.held(k, from) {
		return false
	}
	ix.cover(to)
	e := ix.ents[from]
	if e.prev >= 0 {
		ix.ents[e.prev].next = to
	} else {
		ix.head.Set(k, to)
	}
	if e.next >= 0 {
		ix.ents[e.next].prev = to
	}
	ix.ents[to] = e
	ix.drop(from)
	return true
}

// First returns the first row id with key k, or -1 if none.
//
//borg:noalloc
func (ix *Index) First(k uint64) int32 {
	if id, ok := ix.head.Get(k); ok {
		return id
	}
	return -1
}

// Next returns the row id after id in its key's chain, or -1 at the end.
//
//borg:noalloc
func (ix *Index) Next(id int32) int32 { return ix.ents[id].next }

// KeyOf returns the key held row id carries.
func (ix *Index) KeyOf(id int32) uint64 { return ix.ents[id].key }

// Len returns the number of distinct keys.
func (ix *Index) Len() int { return ix.head.Len() }

// Cols returns the indexed column positions.
func (ix *Index) Cols() []int { return ix.cols }
