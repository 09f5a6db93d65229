package borg

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"borg/internal/ivm"
)

// wireQuery is the borg-serve schema: what the HTTP bodies of the tests
// and the fuzz corpus are written against.
func wireQuery(t testing.TB) *Query {
	t.Helper()
	db := NewDatabase()
	db.AddRelation("Sales", Cat("item"), Cat("store"), Num("units"))
	db.AddRelation("Items", Cat("item"), Cat("store"), Num("price"))
	db.AddRelation("Stores", Cat("store"), Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestIngestJSONSemantics pins the corners of the grammar one by one;
// cmd/borg-serve's differential test covers them in bulk.
func TestIngestJSONSemantics(t *testing.T) {
	type want struct {
		bodyErr bool
		rows    int
		failed  []int
	}
	for _, c := range []struct {
		name, body  string
		forceDelete bool
		want
	}{
		{name: "one op", body: `{"rel":"Stores","values":["s1",120]}`, want: want{rows: 1}},
		{name: "values before rel", body: `{"values":["s1",120],"rel":"Stores"}`, want: want{rows: 1}},
		{name: "array, one bad row", body: `[{"rel":"Stores","values":["s1",120]},{"rel":"Nope","values":[]}]`, want: want{rows: 2, failed: []int{1}}},
		{name: "empty array", body: ` [ ] `, want: want{}},
		{name: "null is the op with nothing set", body: `null`, want: want{rows: 1, failed: []int{0}}},
		{name: "null element", body: `[null]`, want: want{rows: 1, failed: []int{0}}},
		{name: "escaped key and relation", body: `{"r\u0065l":"Stor\u0065s","values":["s1",1]}`, want: want{rows: 1}},
		{name: "last rel wins", body: `{"rel":"Nope","rel":"Stores","values":["s1",1]}`, want: want{rows: 1}},
		{name: "null does not unset rel", body: `{"rel":"Stores","rel":null,"values":["s1",1]}`, want: want{rows: 1}},
		{name: "null unsets values", body: `{"rel":"Stores","values":["s1",1],"values":null}`, want: want{rows: 1, failed: []int{0}}},
		{name: "last values win", body: `{"rel":"Stores","values":[1,2,3],"values":["s1",1]}`, want: want{rows: 1}},
		{name: "unknown keys are skipped", body: `{"rel":"Stores","x":{"y":[1,{"z":null}],"w":1e999},"values":["s1",1]}`, want: want{rows: 1}},
		{name: "update", body: `{"rel":"Stores","op":"update","values":["s1",1],"new":["s1",2]}`, want: want{rows: 1}},
		{name: "update without new", body: `{"rel":"Stores","op":"update","values":["s1",1],"new":null}`, want: want{rows: 1, failed: []int{0}}},
		{name: "unknown op", body: `{"rel":"Stores","op":"upsert","values":["s1",1]}`, want: want{rows: 1, failed: []int{0}}},
		{name: "forced delete", body: `[{"rel":"Stores","values":["s1",1]},{"rel":"Stores","op":"insert","values":["s1",1]}]`, forceDelete: true, want: want{rows: 2, failed: []int{1}}},
		{name: "wrong cell types", body: `[{"rel":"Stores","values":[1,1]},{"rel":"Stores","values":["s1","x"]},{"rel":"Stores","values":["s1",null]},{"rel":"Stores","values":["s1",[1]]}]`, want: want{rows: 4, failed: []int{0, 1, 2, 3}}},
		{name: "wrong arity", body: `{"rel":"Stores","values":["s1"]}`, want: want{rows: 1, failed: []int{0}}},
		{name: "number forms", body: `[{"rel":"Stores","values":["s1",-0]},{"rel":"Stores","values":["s1",1E+2]},{"rel":"Stores","values":["s1",1234567890123456789012345678901234567890]}]`, want: want{rows: 3}},
		{name: "number out of range", body: `{"rel":"Stores","values":["s1",1e999]}`, want: want{bodyErr: true}},
		{name: "nested number out of range", body: `{"rel":"Stores","values":["s1",[[1e999]]]}`, want: want{bodyErr: true}},
		{name: "rel of the wrong type", body: `{"rel":5}`, want: want{bodyErr: true}},
		{name: "values of the wrong type", body: `{"values":{}}`, want: want{bodyErr: true}},
		{name: "op that is not an object", body: `[1]`, want: want{bodyErr: true}},
		{name: "number at the top", body: `5`, want: want{bodyErr: true}},
		{name: "empty body", body: ``, want: want{bodyErr: true}},
		{name: "trailing data", body: `{} {}`, want: want{bodyErr: true}},
		{name: "trailing NUL", body: "{}\x00", want: want{bodyErr: true}},
		{name: "leading zero", body: `{"values":[01]}`, want: want{bodyErr: true}},
		{name: "bad escape", body: `{"values":["\x"]}`, want: want{bodyErr: true}},
		{name: "control character", body: "{\"values\":[\"a\tb\"]}", want: want{bodyErr: true}},
		{name: "cut short", body: `[{"rel":"Stores","values":["s1",1]}`, want: want{bodyErr: true}},
		{name: "too deep", body: strings.Repeat("[", wireDepth+1) + strings.Repeat("]", wireDepth+1), want: want{bodyErr: true}},
		{name: "as deep as JSON goes", body: `{"x":` + strings.Repeat("[", wireDepth-1) + strings.Repeat("]", wireDepth-1) + `}`, want: want{rows: 1, failed: []int{0}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := wireQuery(t).ServeSharded([]string{"units", "price", "area"}, ShardOptions{ServerOptions: ServerOptions{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			res, err := srv.IngestJSON([]byte(c.body), c.forceDelete)
			if (err != nil) != c.bodyErr {
				t.Fatalf("body error %v, want one: %v", err, c.bodyErr)
			}
			if (err == nil) != json.Valid([]byte(c.body)) && !c.bodyErr {
				t.Fatalf("accepted a body json.Valid refuses")
			}
			var failed []int
			for i, e := range res.Errors {
				if e != nil {
					failed = append(failed, i)
				}
			}
			if res.Rows != c.rows || fmt.Sprint(failed) != fmt.Sprint(c.failed) {
				t.Fatalf("%d rows, failed %v (%v); want %d rows, failed %v", res.Rows, failed, res.Errors, c.rows, c.failed)
			}
			if res.Array != strings.HasPrefix(strings.TrimSpace(c.body), "[") && err == nil {
				t.Fatalf("Array = %v", res.Array)
			}
		})
	}
}

// TestIngestJSONUnquotes: a string with escapes or invalid UTF-8 names
// the category encoding/json would have made of it.
func TestIngestJSONUnquotes(t *testing.T) {
	for _, lit := range []string{
		`"plain"`, `"Zürich"`, `"bün"`, `"sm😀ile"`, `"lone\ud83d"`, `"lone\ud83dx"`, `"low\ude00first"`,
		`"two\ud83d😀"`, "\"bad\xff\xfeutf8\"", "\"cut\xe2\x82\"", `"q\"\\\/\b\f\n\r\t"`, `"\u0020\u0000"`, `""`, `"\u00e9é"`, `"\uD83D\uDE00"`,
	} {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		q := wireQuery(t)
		srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{ServerOptions: ServerOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.IngestJSON([]byte(`{"rel":"Stores","values":[`+lit+`,1]}`), false)
		if err != nil || res.Errors != nil {
			t.Fatalf("%s: %v %v", lit, err, res.Errors)
		}
		if d := q.db.db.Dict("store"); d.Len() != 1 || d.Name(0) != want {
			t.Errorf("%s interned %q, want %q", lit, d.Name(0), want)
		}
		srv.Close()
	}
}

// countSink stands in for the serving tier where a test counts what the
// facade itself allocates: a running writer allocates epochs of its own.
type countSink struct {
	ingestSink
	ops int
}

func (c *countSink) Insert(ivm.Tuple) error      { c.ops++; return nil }
func (c *countSink) Delete(ivm.Tuple) error      { c.ops++; return nil }
func (c *countSink) Update(_, _ ivm.Tuple) error { c.ops++; return nil }

// rowAllocs averages the allocations of n calls of f, after a warm-up
// call that fills the scratch pools.
func rowAllocs(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestIngestAllocs pins what a row costs the facade once the categories
// are known and the scratch is warm: nothing, per IngestJSON body or per
// Insert of boxed values, since the sink copies each row before it
// returns and the scratch row is reused.
func TestIngestAllocs(t *testing.T) {
	q := wireQuery(t)
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{ServerOptions: ServerOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Metrics() == nil {
		t.Fatal("the pins are taken with metrics on")
	}
	sink := &countSink{ingestSink: srv.sink}
	api := ingestAPI{sink: sink, rels: srv.rels}

	var rows []string
	for i := 0; i < 256; i++ {
		item, store := fmt.Sprintf(`"item%d"`, i%7), fmt.Sprintf(`"stör%d"`, i%5)
		switch i % 4 {
		case 0:
			rows = append(rows, `{"rel":"Sales","values":[`+item+`,`+store+`,3.5]}`)
		case 1:
			rows = append(rows, `{"rel":"Items","op":"delete","values":[`+item+`,`+store+`,1e2]}`)
		case 2:
			rows = append(rows, `{"rel":"Sales","op":"update","new":[`+item+`,`+store+`,4],"values":[`+item+`,`+store+`,-0.25]}`)
		default:
			rows = append(rows, `{"rel":"Stores","values":[`+store+`,120]}`)
		}
	}
	for _, n := range []int{16, 256} {
		body := []byte("[" + strings.Join(rows[:n], ",") + "]")
		ingest := func() {
			if res, err := api.IngestJSON(body, false); err != nil || res.Errors != nil || res.Rows != n {
				t.Fatalf("%d-row body: %v %+v", n, err, res)
			}
		}
		ingest() // interns the categories and grows the scratch
		a := testing.AllocsPerRun(100, ingest)
		t.Logf("IngestJSON of a %d-row body: %.0f allocs", n, a)
		if a > 0 && !raceEnabled {
			t.Errorf("IngestJSON of a %d-row body allocates %.1f, want 0", n, a)
		}
	}

	boxed := []any{"item1", "stör1", 3.5}
	a := rowAllocs(1024, func() {
		if err := api.Insert("Sales", boxed...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Insert of boxed values: %.3f allocs per row", a)
	if a > 0 && !raceEnabled {
		t.Errorf("Insert of boxed values allocates %.3f per row, want 0", a)
	}
	if sink.ops == 0 {
		t.Fatal("nothing reached the sink")
	}
}

// TestInsertWideRowAllocs: the per-cell function shared with IngestJSON
// adds nothing to Insert, whatever the width of the row.
func TestInsertWideRowAllocs(t *testing.T) {
	db := NewDatabase()
	fields := []Field{Cat("k0"), Cat("k1"), Cat("k2")}
	boxed := []any{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		fields = append(fields, Num(fmt.Sprintf("x%d", i)))
		boxed = append(boxed, float64(i))
	}
	db.AddRelation("Wide", fields...)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"x0", "x1"}, ShardOptions{ServerOptions: ServerOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	api := ingestAPI{sink: &countSink{ingestSink: srv.sink}, rels: srv.rels}
	insert := func() {
		if err := api.Insert("Wide", boxed...); err != nil {
			t.Fatal(err)
		}
	}
	a := rowAllocs(1024, insert)
	t.Logf("Insert of an 11-value boxed row: %.3f allocs per row", a)
	if a > 0 && !raceEnabled {
		t.Errorf("Insert of an 11-value boxed row allocates %.3f per row, want 0", a)
	}
}

// FuzzIngestJSON feeds raw bytes to a fresh server: whatever they are,
// IngestJSON returns; what it accepts is JSON; and what is not JSON is
// refused whole — nothing enqueued, nothing applied, nothing interned.
func FuzzIngestJSON(f *testing.F) {
	for _, seed := range []string{
		`{"rel":"Stores","values":["s1",120]}`,
		`[{"rel":"Sales","values":["patty","s1",3]},{"rel":"Sales","op":"update","values":["patty","s1",3],"new":["patty","s1",7]}]`,
		`{"rel":"Items","values":["bün","lone\ud83d",-0],"op":"delete","x":{"y":[1,{"z":null}]}}`,
		`[null,{"rel":null,"values":null,"new":[],"op":""}]`,
		`{"values":[1e999]}`, `[`, `{"rel":"Sales"`, "{}\x00", `{"values":["😀",01]}`,
	} {
		f.Add([]byte(seed), false)
	}
	f.Fuzz(func(t *testing.T, body []byte, forceDelete bool) {
		q := wireQuery(t)
		srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{ServerOptions: ServerOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := srv.IngestJSON(body, forceDelete)
		valid := json.Valid(body)
		if err == nil && !valid {
			t.Fatalf("accepted %q, which is not JSON", body)
		}
		if res.Errors != nil && len(res.Errors) != res.Rows {
			t.Fatalf("%d rows, %d error slots", res.Rows, len(res.Errors))
		}
		if !valid {
			queued := srv.inner.QueueLen()
			_ = srv.Flush()
			st := srv.Stats()
			dicts := q.db.db.Dict("item").Len() + q.db.db.Dict("store").Len()
			if queued != 0 || st.Inserts != 0 || st.Deletes != 0 || dicts != 0 {
				t.Fatalf("%q is not JSON, yet %d ops were queued, %d+%d applied and %d categories interned", body, queued, st.Inserts, st.Deletes, dicts)
			}
		}
	})
}
