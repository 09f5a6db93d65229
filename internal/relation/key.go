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

// Index is a hash index from packed join key to the row ids holding it.
// A row id is held under at most one key at a time, which lets the index
// keep, per id, its position in its bucket: insert, remove and repoint
// are O(1) whatever the bucket size, for 4 bytes per row. Bucket order
// is a deterministic function of the operation sequence and otherwise
// unspecified.
type Index struct {
	cols []int
	m    map[uint64][]int32
	pos  []int32 // pos[id] is id's position in its bucket; stale once id is removed
}

// BuildIndex indexes the relation on the given categorical columns. The
// position table is sized to the rows, but the map grows with the keys:
// a fact table has several rows per key, so a hint of one slot per row
// would reserve several times the memory the index needs.
func (r *Relation) BuildIndex(cols []int) *Index {
	key := r.KeyFunc(cols)
	ix := &Index{cols: cols, m: make(map[uint64][]int32), pos: make([]int32, r.rows)}
	for i := 0; i < r.rows; i++ {
		ix.Insert(key(i), int32(i))
	}
	return ix
}

// NewIndex returns an empty index on the given columns, to be maintained
// incrementally with Insert as rows are appended.
func NewIndex(cols []int) *Index {
	return &Index{cols: cols, m: make(map[uint64][]int32)}
}

// Insert records that row id, held under no key so far, carries key k.
func (ix *Index) Insert(k uint64, id int32) {
	b := ix.m[k]
	ix.setPos(id, len(b))
	ix.m[k] = append(b, id)
}

// setPos records id's bucket position, growing the table to cover id.
func (ix *Index) setPos(id int32, p int) {
	for int(id) >= len(ix.pos) {
		ix.pos = append(ix.pos, 0)
	}
	ix.pos[id] = int32(p)
}

// find returns k's bucket and id's position in it, or -1 when id is not
// held under k: a stale or foreign position never points at id.
func (ix *Index) find(k uint64, id int32) ([]int32, int) {
	b := ix.m[k]
	if int(id) < len(ix.pos) {
		if p := int(ix.pos[id]); p < len(b) && b[p] == id {
			return b, p
		}
	}
	return b, -1
}

// Remove forgets that row id carries key k, reporting whether the entry
// existed; an absent entry changes nothing. The entry is found through
// the position table and its slot refilled with the bucket's last id,
// and a bucket that empties is dropped, so a long-lived index under
// churn does not accumulate dead keys.
//
//borg:noalloc
func (ix *Index) Remove(k uint64, id int32) bool {
	b, p := ix.find(k, id)
	if p < 0 {
		return false
	}
	last := len(b) - 1
	if last == 0 {
		delete(ix.m, k)
		return true
	}
	b[p] = b[last]
	ix.pos[b[p]] = int32(p)
	ix.m[k] = b[:last]
	return true
}

// Repoint renames the entry (k, from) to (k, to) in place, keeping its
// bucket position — what a swap-delete needs when the relation's last
// row moves into a freed slot. to must be held under no key. It reports
// whether the entry existed.
//
//borg:noalloc
func (ix *Index) Repoint(k uint64, from, to int32) bool {
	b, p := ix.find(k, from)
	if p < 0 {
		return false
	}
	b[p] = to
	ix.setPos(to, p)
	return true
}

// Rows returns the row ids with key k (nil if none). The slice must not
// be modified.
func (ix *Index) Rows(k uint64) []int32 { return ix.m[k] }

// Len returns the number of distinct keys.
func (ix *Index) Len() int { return len(ix.m) }

// Cols returns the indexed column positions.
func (ix *Index) Cols() []int { return ix.cols }
