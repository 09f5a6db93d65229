package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func toySchema() []Attribute {
	return []Attribute{
		{Name: "item", Type: Category},
		{Name: "price", Type: Double},
		{Name: "store", Type: Category},
	}
}

func TestAppendAndAccess(t *testing.T) {
	r := New("sales", toySchema())
	d := r.ColByName("item").Dict
	r.AppendRow(CatVal(d.Code("patty")), FloatVal(6), CatVal(r.ColByName("store").Dict.Code("s1")))
	r.AppendRow(CatVal(d.Code("bun")), FloatVal(2), CatVal(r.ColByName("store").Dict.Code("s2")))
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", r.NumRows())
	}
	if got := r.Float(1, 0); got != 6 {
		t.Fatalf("Float(1,0) = %v, want 6", got)
	}
	if got := d.Name(r.Cat(0, 1)); got != "bun" {
		t.Fatalf("row 1 item = %q, want bun", got)
	}
	if r.FormatCell(0, 0) != "patty" || r.FormatCell(1, 1) != "2" {
		t.Fatalf("FormatCell mismatch: %q %q", r.FormatCell(0, 0), r.FormatCell(1, 1))
	}
}

// TestNormBits pins the float identity rows are matched, hashed and
// routed by: -0.0 is +0.0, and every other value keeps its own bits — a
// NaN too, so a NaN row can still be found again to retract it.
func TestNormBits(t *testing.T) {
	if NormBits(math.Copysign(0, -1)) != NormBits(0) {
		t.Fatal("-0.0 and +0.0 normalize to different bits")
	}
	for _, f := range []float64{0, 1, -1, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000123)} {
		if got := NormBits(f); got != math.Float64bits(f) {
			t.Fatalf("NormBits(%v) = %x, want its own bits %x", f, got, math.Float64bits(f))
		}
	}
}

func TestDuplicateAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attribute did not panic")
		}
	}()
	New("bad", []Attribute{{Name: "x", Type: Double}, {Name: "x", Type: Double}})
}

func TestDictInterning(t *testing.T) {
	d := NewDict()
	a := d.Code("x")
	b := d.Code("y")
	if a == b {
		t.Fatal("distinct strings share a code")
	}
	if d.Code("x") != a {
		t.Fatal("re-interning changed the code")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "x" || d.Name(b) != "y" {
		t.Fatal("Name does not invert Code")
	}
	if _, ok := d.Lookup("z"); ok {
		t.Fatal("Lookup found an uninterned string")
	}
}

func TestDatabaseSharesDicts(t *testing.T) {
	db := NewDatabase()
	s := db.NewRelation("sales", []Attribute{{Name: "item", Type: Category}, {Name: "units", Type: Double}})
	i := db.NewRelation("items", []Attribute{{Name: "item", Type: Category}, {Name: "price", Type: Double}})
	c1 := s.ColByName("item").Dict.Code("patty")
	c2 := i.ColByName("item").Dict.Code("patty")
	if c1 != c2 {
		t.Fatalf("shared attribute dictionaries differ: %d vs %d", c1, c2)
	}
	if db.Dict("item") != s.ColByName("item").Dict {
		t.Fatal("Database.Dict does not return the shared dictionary")
	}
	if db.Relation("sales") != s || db.Relation("nope") != nil {
		t.Fatal("Database.Relation lookup broken")
	}
	if len(db.Relations()) != 2 {
		t.Fatalf("Relations() = %d entries, want 2", len(db.Relations()))
	}
}

func TestGrowAndTruncate(t *testing.T) {
	r := New("r", toySchema())
	start := r.Grow(5)
	if start != 0 || r.NumRows() != 5 {
		t.Fatalf("Grow: start=%d rows=%d", start, r.NumRows())
	}
	r.Col(1).F[3] = 9.5
	if r.Float(1, 3) != 9.5 {
		t.Fatal("direct column write not visible")
	}
	start = r.Grow(2)
	if start != 5 || r.NumRows() != 7 {
		t.Fatalf("second Grow: start=%d rows=%d", start, r.NumRows())
	}
	r.Truncate()
	if r.NumRows() != 0 {
		t.Fatal("Truncate left rows behind")
	}
	if r.ColByName("item").Dict == nil {
		t.Fatal("Truncate destroyed dictionaries")
	}
}

func TestCloneEmptySharesDicts(t *testing.T) {
	r := New("r", toySchema())
	r.ColByName("item").Dict.Code("patty")
	c := r.CloneEmpty()
	if c.NumRows() != 0 {
		t.Fatal("CloneEmpty has rows")
	}
	if c.ColByName("item").Dict != r.ColByName("item").Dict {
		t.Fatal("CloneEmpty did not share dictionaries")
	}
	c.AppendRow(CatVal(0), FloatVal(1), CatVal(0))
	if r.NumRows() != 0 {
		t.Fatal("appending to clone affected original")
	}
}

func TestAppendRowFromAndRow(t *testing.T) {
	r := New("r", toySchema())
	r.AppendRow(CatVal(3), FloatVal(1.5), CatVal(7))
	c := r.CloneEmpty()
	c.AppendRowFrom(r, 0)
	row := c.Row(0)
	if row[0].C != 3 || row[1].F != 1.5 || row[2].C != 7 {
		t.Fatalf("copied row mismatch: %+v", row)
	}
}

func TestPackKeys(t *testing.T) {
	if err := quick.Check(func(a, b int32) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		x, y := UnpackKey2(PackKey2(a, b))
		return x == a && y == b && PackKey1(a) == uint64(uint32(a))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyFuncAndIndex(t *testing.T) {
	r := New("r", toySchema())
	for i := 0; i < 10; i++ {
		r.AppendRow(CatVal(int32(i%3)), FloatVal(float64(i)), CatVal(int32(i%2)))
	}
	key := r.KeyFunc([]int{0, 2})
	if key(4) != PackKey2(1, 0) {
		t.Fatalf("KeyFunc(4) = %d", key(4))
	}
	ix := r.BuildIndex([]int{0})
	if ix.Len() != 3 {
		t.Fatalf("index has %d keys, want 3", ix.Len())
	}
	rows := chain(ix, PackKey1(1))
	want := []int32{1, 4, 7}
	if len(rows) != len(want) {
		t.Fatalf("Rows(1) = %v, want %v", rows, want)
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Fatalf("Rows(1) = %v, want %v", rows, want)
		}
	}
	if chain(ix, PackKey1(99)) != nil {
		t.Fatal("Rows of absent key should be nil")
	}

	// Incremental index agrees with bulk build.
	inc := NewIndex([]int{0})
	kf := r.KeyFunc([]int{0})
	for i := 0; i < r.NumRows(); i++ {
		inc.Insert(kf(i), int32(i))
	}
	if inc.Len() != ix.Len() {
		t.Fatalf("incremental index has %d keys, bulk has %d", inc.Len(), ix.Len())
	}
}

func TestKeyFuncZeroAndPanic(t *testing.T) {
	r := New("r", toySchema())
	r.AppendRow(CatVal(1), FloatVal(0), CatVal(2))
	if r.KeyFunc(nil)(0) != 0 {
		t.Fatal("empty key func should return 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("3-wide key did not panic")
		}
	}()
	r.KeyFunc([]int{0, 0, 0})
}

func TestSortBy(t *testing.T) {
	r := New("r", toySchema())
	r.AppendRow(CatVal(2), FloatVal(5), CatVal(0))
	r.AppendRow(CatVal(0), FloatVal(7), CatVal(1))
	r.AppendRow(CatVal(2), FloatVal(1), CatVal(1))
	r.AppendRow(CatVal(1), FloatVal(3), CatVal(0))
	r.SortBy(0, 1)
	wantItems := []int32{0, 1, 2, 2}
	wantPrice := []float64{7, 3, 1, 5}
	for i := range wantItems {
		if r.Cat(0, i) != wantItems[i] || r.Float(1, i) != wantPrice[i] {
			t.Fatalf("row %d = (%d, %v), want (%d, %v)", i, r.Cat(0, i), r.Float(1, i), wantItems[i], wantPrice[i])
		}
	}
	if !r.EqualRows(2, 3, []int{0}) || r.EqualRows(0, 1, []int{0}) {
		t.Fatal("EqualRows misbehaves")
	}
}

func TestSortStable(t *testing.T) {
	r := New("r", []Attribute{{Name: "k", Type: Category}, {Name: "seq", Type: Double}})
	for i := 0; i < 100; i++ {
		r.AppendRow(CatVal(int32(i%5)), FloatVal(float64(i)))
	}
	r.SortBy(0)
	for i := 1; i < r.NumRows(); i++ {
		if r.Cat(0, i) == r.Cat(0, i-1) && r.Float(1, i) < r.Float(1, i-1) {
			t.Fatal("SortBy is not stable within equal keys")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := NewDatabase()
	r := db.NewRelation("sales", toySchema())
	d := r.ColByName("item").Dict
	sd := r.ColByName("store").Dict
	r.AppendRow(CatVal(d.Code("patty")), FloatVal(6.25), CatVal(sd.Code("s,1")))
	r.AppendRow(CatVal(d.Code("on\"ion")), FloatVal(-2), CatVal(sd.Code("s2")))

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back := r.CloneEmpty()
	if err := back.ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != r.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), r.NumRows())
	}
	for i := 0; i < r.NumRows(); i++ {
		for c := 0; c < r.NumAttrs(); c++ {
			if r.FormatCell(c, i) != back.FormatCell(c, i) {
				t.Fatalf("cell (%d,%d): %q != %q", c, i, r.FormatCell(c, i), back.FormatCell(c, i))
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	r := New("r", toySchema())
	cases := []string{
		"",                           // no header
		"item,price\na,1",            // wrong width
		"item,cost,store\na,1,b",     // wrong name
		"item,price,store\na,nope,b", // bad float
	}
	for i, in := range cases {
		rr := r.CloneEmpty()
		if err := rr.ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: ReadCSV accepted malformed input %q", i, in)
		}
	}
}

func TestTotalRows(t *testing.T) {
	db := NewDatabase()
	a := db.NewRelation("a", []Attribute{{Name: "x", Type: Double}})
	b := db.NewRelation("b", []Attribute{{Name: "y", Type: Double}})
	a.Grow(3)
	b.Grow(4)
	if db.TotalRows() != 7 {
		t.Fatalf("TotalRows = %d, want 7", db.TotalRows())
	}
}

func TestSwapDeleteRow(t *testing.T) {
	r := New("sales", toySchema())
	d := r.ColByName("item").Dict
	s := r.ColByName("store").Dict
	for i, row := range []struct {
		item  string
		price float64
		store string
	}{
		{"patty", 6, "s1"}, {"bun", 2, "s2"}, {"onion", 1, "s1"}, {"sausage", 4, "s3"},
	} {
		r.AppendRow(CatVal(d.Code(row.item)), FloatVal(row.price), CatVal(s.Code(row.store)))
		if r.NumRows() != i+1 {
			t.Fatalf("NumRows = %d, want %d", r.NumRows(), i+1)
		}
	}

	// Deleting a middle row moves the last row into its slot.
	r.SwapDeleteRow(1)
	if r.NumRows() != 3 {
		t.Fatalf("NumRows after delete = %d, want 3", r.NumRows())
	}
	if got := d.Name(r.Cat(0, 1)); got != "sausage" {
		t.Fatalf("moved row item = %q, want sausage", got)
	}
	if got := r.Float(1, 1); got != 4 {
		t.Fatalf("moved row price = %v, want 4", got)
	}

	// Deleting the last row is a plain shrink.
	r.SwapDeleteRow(r.NumRows() - 1)
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", r.NumRows())
	}
	if got := d.Name(r.Cat(0, 0)); got != "patty" {
		t.Fatalf("row 0 item = %q, want patty", got)
	}

	// Delete down to empty, then append again: the relation stays usable.
	r.SwapDeleteRow(0)
	r.SwapDeleteRow(0)
	if r.NumRows() != 0 {
		t.Fatalf("NumRows = %d, want 0", r.NumRows())
	}
	r.AppendRow(CatVal(d.Code("bun")), FloatVal(2), CatVal(s.Code("s2")))
	if r.NumRows() != 1 || d.Name(r.Cat(0, 0)) != "bun" {
		t.Fatal("append after delete-to-empty failed")
	}
}

func TestSwapDeleteRowPanics(t *testing.T) {
	r := New("r", toySchema())
	for _, i := range []int{-1, 0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SwapDeleteRow(%d) of empty relation did not panic", i)
				}
			}()
			r.SwapDeleteRow(i)
		}()
	}
}

func TestIndexRemove(t *testing.T) {
	ix := NewIndex([]int{0})
	ix.Insert(7, 0)
	ix.Insert(7, 1)
	ix.Insert(9, 2)

	if !ix.Remove(7, 0) {
		t.Fatal("Remove(7, 0) reported missing")
	}
	if rows := chain(ix, 7); len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("Rows(7) = %v, want [1]", rows)
	}
	// Removing an absent id (wrong id, wrong key) reports false and
	// leaves the index untouched.
	if ix.Remove(7, 5) || ix.Remove(42, 1) {
		t.Fatal("Remove of absent entry reported success")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	// Draining a bucket drops the key entirely.
	if !ix.Remove(7, 1) {
		t.Fatal("Remove(7, 1) reported missing")
	}
	if chain(ix, 7) != nil {
		t.Fatalf("Rows(7) = %v after draining, want nil", chain(ix, 7))
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after draining key 7, want 1", ix.Len())
	}
	// Re-inserting under a drained key works.
	ix.Insert(7, 4)
	if rows := chain(ix, 7); len(rows) != 1 || rows[0] != 4 {
		t.Fatalf("Rows(7) after re-insert = %v, want [4]", rows)
	}
}
