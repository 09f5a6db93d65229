package borg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"borg/internal/relation"
)

// buildToyDB creates a two-relation schema with a planted linear signal:
// units = 3 - 0.5*price + cityEffect + noise-free.
func buildToyDB(t *testing.T) (*Database, *Relation, *Relation) {
	t.Helper()
	db := NewDatabase()
	sales := db.AddRelation("Sales", Cat("item"), Cat("city"), Num("units"))
	items := db.AddRelation("Items", Cat("item"), Num("price"))
	prices := map[string]float64{"patty": 6, "onion": 2, "bun": 2, "sausage": 4}
	for name, p := range prices {
		if err := items.Append(name, p); err != nil {
			t.Fatal(err)
		}
	}
	cityEffect := map[string]float64{"zurich": 1, "oxford": -1}
	i := 0
	for item, p := range prices {
		for city, eff := range cityEffect {
			units := 3 - 0.5*p + eff
			if err := sales.Append(item, city, units); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	return db, sales, items
}

func TestFacadeLinearRegression(t *testing.T) {
	db, _, _ := buildToyDB(t)
	q, err := db.Query("Sales", "Items")
	if err != nil {
		t.Fatal(err)
	}
	m, err := q.LinearRegression(Features{
		Continuous:  []string{"price"},
		Categorical: []string{"city"},
	}, "units", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	coef, err := m.Coefficient("price")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef+0.5) > 0.05 {
		t.Fatalf("price coefficient = %v, want ≈ -0.5", coef)
	}
	zur, err := m.CategoryCoefficient("city", "zurich")
	if err != nil {
		t.Fatal(err)
	}
	oxf, err := m.CategoryCoefficient("city", "oxford")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((zur-oxf)-2) > 0.05 {
		t.Fatalf("city effect difference = %v, want ≈ 2", zur-oxf)
	}
	// Retrain on a subset without data access.
	m2, err := m.Retrain(Features{Continuous: []string{"price"}}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Coefficient("price"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Coefficient("ghost"); err == nil {
		t.Fatal("unknown coefficient accepted")
	}
	if _, err := m.CategoryCoefficient("city", "nowhere"); err == nil {
		t.Fatal("unknown category accepted")
	}
}

// TestCategoryCoefficientDuringIngest reads a batch model's one-hot
// parameters while a server over the same database interns new
// categories into the dictionary the model resolves them through: under
// -race, a lookup that skips internMu is reported.
func TestCategoryCoefficientDuringIngest(t *testing.T) {
	db, _, _ := buildToyDB(t)
	q, err := db.Query("Sales", "Items")
	if err != nil {
		t.Fatal(err)
	}
	m, err := q.LinearRegression(Features{Continuous: []string{"price"}, Categorical: []string{"city"}}, "units", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.CategoryCoefficient("city", "zurich")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price"}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error)
	go func() {
		for i := 0; i < 500; i++ {
			if err := srv.Insert("Sales", "patty", fmt.Sprintf("city%d", i), 1.0); err != nil {
				done <- err
				return
			}
		}
		done <- srv.Flush()
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if got, err := m.CategoryCoefficient("city", "zurich"); err != nil || got != want {
			t.Fatalf("CategoryCoefficient = %v, %v during ingest; want %v", got, err, want)
		}
		if _, err := m.CategoryCoefficient("city", "city3"); err == nil {
			t.Fatal("a category interned after training has a coefficient")
		}
	}
}

func TestFacadeAppendErrors(t *testing.T) {
	db := NewDatabase()
	r := db.AddRelation("R", Cat("k"), Num("x"))
	if err := r.Append("a"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := r.Append(1.0, 2.0); err == nil {
		t.Fatal("float into categorical accepted")
	}
	if err := r.Append("a", "b"); err == nil {
		t.Fatal("string into continuous accepted")
	}
	if err := r.Append("a", struct{}{}); err == nil {
		t.Fatal("unsupported type accepted")
	}
	if err := r.Append("a", 2); err != nil {
		t.Fatalf("int into continuous rejected: %v", err)
	}
	if r.Rows() != 1 || r.Name() != "R" {
		t.Fatal("accessors broken")
	}
}

func TestFacadeQueryErrors(t *testing.T) {
	db := NewDatabase()
	db.AddRelation("A", Cat("a"), Cat("b"))
	db.AddRelation("B", Cat("b"), Cat("c"))
	db.AddRelation("C", Cat("c"), Cat("a"))
	if _, err := db.Query("A", "Ghost"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := db.Query(); err == nil {
		// All three relations form a cyclic join.
		t.Fatal("cyclic join accepted")
	}
	if _, err := NewDatabase().Query(); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestFacadeCovariance(t *testing.T) {
	db, _, _ := buildToyDB(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	c, err := q.Covariance(Features{Continuous: []string{"price"}}, "units")
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 8 {
		t.Fatalf("Count = %v, want 8", c.Count())
	}
	mean, err := c.Mean("price")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-3.5) > 1e-9 {
		t.Fatalf("mean price = %v, want 3.5", mean)
	}
	if _, err := c.Mean("ghost"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := c.SecondMoment("price", "price"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDecisionTree(t *testing.T) {
	db, _, _ := buildToyDB(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := q.DecisionTree(Features{
		Continuous:  []string{"price"},
		Categorical: []string{"city"},
	}, "units", TreeOptions{MaxDepth: 3, MinRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() == 0 {
		t.Fatal("no nodes evaluated")
	}
	if tree.Depth() > 3 {
		t.Fatalf("depth %d exceeds max", tree.Depth())
	}
}

func TestFacadeKMeansAndChowLiu(t *testing.T) {
	ds, err := GenerateDataset("retailer", 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ds.KMeans([]string{"prize", "maxtemp"}, ds.GridAttr, 3, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Centers) != 3 || cl.Coreset == 0 {
		t.Fatalf("clustering malformed: %+v", cl)
	}
	edges, err := ds.ChowLiu(ds.Feats.Categorical[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("Chow-Liu over 3 attributes has %d edges", len(edges))
	}
}

// TestFacadeStreamingCovariance streams the toy join into a one-shard
// ServeSharded: an item counts for nothing before a sale joins it, and
// then count, mean and second moment are exact. The unknown-feature
// error is TestFacadeErrorsNameAvailable's.
func TestFacadeStreamingCovariance(t *testing.T) {
	db, _, _ := buildToyDB(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price"}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	read := func() *ServerSnapshot {
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
		return srv.CovarSnapshot()
	}
	if err := srv.Insert("Items", "patty", 6.0); err != nil {
		t.Fatal(err)
	}
	if c := read().Count(); c != 0 {
		t.Fatalf("count before any sale = %v, want 0", c)
	}
	if err := srv.Insert("Sales", "patty", "zurich", 1.0); err != nil {
		t.Fatal(err)
	}
	snap := read()
	if snap.Count() != 1 {
		t.Fatalf("count = %v, want 1", snap.Count())
	}
	mean, err := snap.Mean("price")
	if err != nil {
		t.Fatal(err)
	}
	if mean != 6 {
		t.Fatalf("mean price = %v, want 6", mean)
	}
	m, err := snap.SecondMoment("units", "price")
	if err != nil {
		t.Fatal(err)
	}
	if m != 6 {
		t.Fatalf("SUM(units*price) = %v, want 6", m)
	}
	if err := srv.Insert("Ghost"); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestGenerateDataset(t *testing.T) {
	for _, name := range []string{"retailer", "favorita", "yelp", "tpcds"} {
		ds, err := GenerateDataset(name, 1, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Database().Relation(ds.Root) == nil {
			t.Fatalf("%s: root relation missing", name)
		}
		if len(ds.Feats.Continuous) == 0 || ds.Response == "" {
			t.Fatalf("%s: metadata incomplete", name)
		}
	}
	if _, err := GenerateDataset("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestFieldHelpers(t *testing.T) {
	if Num("x").Categorical || !Cat("g").Categorical {
		t.Fatal("field helpers broken")
	}
	if !strings.HasPrefix(Cat("g").Name, "g") {
		t.Fatal("name lost")
	}
}

func TestCoerceRowNumericWidening(t *testing.T) {
	db := NewDatabase()
	r := db.AddRelation("R", Cat("k"), Num("x"))
	// Every common Go numeric type lands in a continuous attribute.
	for i, v := range []any{
		float64(1), float32(2.5), int(3), int64(4), int32(5), int16(6), int8(7),
		uint(8), uint64(9), uint32(10), uint16(11), uint8(12),
	} {
		if err := r.Append(fmt.Sprintf("k%d", i), v); err != nil {
			t.Fatalf("%T into continuous rejected: %v", v, err)
		}
	}
	if r.Rows() != 12 {
		t.Fatalf("Rows = %d, want 12", r.Rows())
	}

	// The error for a numeric value in a categorical slot names the
	// actual offending Go type and the expected kind — not the
	// misleading old "is categorical, got float".
	err := r.Append(int64(9), 1.0)
	if err == nil {
		t.Fatal("int64 into categorical accepted")
	}
	for _, frag := range []string{"int64", "categorical", "string"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	err = r.Append("a", "b")
	if err == nil {
		t.Fatal("string into continuous accepted")
	}
	for _, frag := range []string{"string", "continuous", "number"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	err = r.Append("a", struct{}{})
	if err == nil {
		t.Fatal("struct accepted")
	}
	if !strings.Contains(err.Error(), "struct {}") || !strings.Contains(err.Error(), "number") {
		t.Fatalf("unsupported-type error %q does not name the type and expected kind", err)
	}
}

// TestCoerceRowTypeTable: coerceRow reads the column's type before the
// value's, and every numeric kind and a string meet both column types
// with the value or the exact refusal text the value-first dispatch
// gave.
func TestCoerceRowTypeTable(t *testing.T) {
	db := NewDatabase()
	r := db.AddRelation("R", Cat("k"), Num("x")).rel
	code := r.Col(0).Dict.Code("s")
	for _, v := range []any{
		float64(1.5), float32(2.5), int(-3), int64(4), int32(5), int16(6), int8(7),
		uint(8), uint64(1 << 60), uint32(10), uint16(11), uint8(12),
		"s", nil, true, math.NaN(), float32(math.Inf(-1)),
	} {
		f, numeric := asFloat(v)
		_, str := v.(string)
		// v as the categorical key, then as the continuous value.
		for col, row := range [][]any{{v, 1.0}, {"s", v}} {
			got, err := coerceRow(r, row, nil)
			var want string
			switch {
			case col == 0 && !str:
				want = fmt.Sprintf("borg: attribute k is categorical (want a string), got %T", v)
			case col == 1 && numeric && (math.IsNaN(f) || math.IsInf(f, 0)):
				want = fmt.Sprintf("borg: attribute x: non-finite value %v is not storable", v)
			case col == 1 && !numeric:
				want = fmt.Sprintf("borg: attribute x is continuous (want a number), got %T", v)
			}
			if want != "" {
				if err == nil || err.Error() != want {
					t.Fatalf("%T %v in column %d: got %v, %v; want refusal %q", v, v, col, got, err, want)
				}
				continue
			}
			wantRow := []relation.Value{relation.CatVal(code), relation.FloatVal(1)}
			if col == 1 {
				wantRow[1] = relation.FloatVal(f)
			}
			if err != nil || len(got) != 2 || got[0] != wantRow[0] || got[1] != wantRow[1] {
				t.Fatalf("%T %v in column %d: got %v, %v; want %v", v, v, col, got, err, wantRow)
			}
		}
	}
}

func TestCoerceRowRejectsNonFinite(t *testing.T) {
	db := NewDatabase()
	r := db.AddRelation("R", Cat("k"), Num("x"))
	for _, v := range []any{math.NaN(), math.Inf(1), math.Inf(-1), float32(float64(math.Inf(1)))} {
		err := r.Append("a", v)
		if err == nil {
			t.Fatalf("non-finite %v accepted", v)
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("error %q does not say non-finite", err)
		}
	}
	if r.Rows() != 0 {
		t.Fatalf("Rows = %d after rejected appends, want 0", r.Rows())
	}
}
