package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"borg"
)

// The retired /insert decode path — encoding/json into []any, then the
// facade's Insert/Delete/Update — kept as the oracle the wire decoder is
// compared against.

type insertReq struct {
	Rel    string `json:"rel"`
	Values []any  `json:"values"`
	Op     string `json:"op,omitempty"`
	New    []any  `json:"new,omitempty"`
}

func (r insertReq) apply(srv *borg.ShardedServer, forceDelete bool) error {
	op := r.Op
	if forceDelete {
		if op != "" && op != "delete" {
			return fmt.Errorf("op %q not allowed on DELETE /insert", op)
		}
		op = "delete"
	}
	switch op {
	case "", "insert":
		return srv.Insert(r.Rel, r.Values...)
	case "delete":
		return srv.Delete(r.Rel, r.Values...)
	case "update":
		if r.New == nil {
			return fmt.Errorf("update for %s is missing the \"new\" values", r.Rel)
		}
		return srv.Update(r.Rel, r.Values, r.New)
	default:
		return fmt.Errorf("unknown op %q (want insert, delete, or update)", op)
	}
}

func parseInserts(body []byte) ([]insertReq, bool, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []insertReq
		if err := json.Unmarshal(body, &reqs); err != nil {
			return nil, true, fmt.Errorf("bad insert array: %v", err)
		}
		return reqs, true, nil
	}
	var one insertReq
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, false, fmt.Errorf("bad insert body: %v", err)
	}
	return []insertReq{one}, false, nil
}

// retiredInsert is the handler the two functions above lived in.
func retiredInsert(srv *borg.ShardedServer, forceDelete bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		reqs, isArray, err := parseInserts(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		type rowErr struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		}
		var errs []rowErr
		for i, req := range reqs {
			if err := req.apply(srv, forceDelete); err != nil {
				errs = append(errs, rowErr{Index: i, Error: err.Error()})
			}
		}
		queued := len(reqs) - len(errs)
		switch {
		case len(errs) == 0:
			writeJSON(w, http.StatusOK, map[string]any{"queued": queued})
		case !isArray:
			writeJSON(w, http.StatusUnprocessableEntity, map[string]any{"error": errs[0].Error, "queued": 0})
		case queued == 0:
			writeJSON(w, http.StatusBadRequest, map[string]any{"queued": 0, "failed": len(errs), "errors": errs})
		default:
			writeJSON(w, http.StatusMultiStatus, map[string]any{"queued": queued, "failed": len(errs), "errors": errs})
		}
	}
}

// bodyGen generates /insert bodies: the documented grammar, and around
// it what a hostile or sloppy client sends.
type bodyGen struct {
	r *rand.Rand
	// live are row texts inserted so far, per relation, so that deletes
	// and updates mostly name tuples that exist.
	live map[string][]string
}

var genRels = map[string]string{"Sales": "ccn", "Items": "ccn", "Stores": "cn"}

var (
	genCats = []string{`"patty"`, `"bun"`, `"s1"`, `"s2"`, `"s3"`, `"bün"`, `"Zürich"`, `"sm😀ile"`,
		`"lone\ud83d"`, `"low\ude00first"`, "\"bad\xff\xfeutf8\"", `"tab\tx"`, `"q\"uote\\"`, `"sl\/ash"`, `""`, `"\u0000nul"`, `"b\u00fcn"`, `"sm\ud83d\ude00ile"`}
	genNums = []string{"3", "0.5", "-0", "1e2", "1E-3", "-12.75e+1", "1234567890123456789012345678901234567890", "0", "7", "2.25"}
	// genOther are cells no column takes; the last two are out of
	// float64's range, which fails the whole body.
	genOther = []string{"null", "true", "false", "{}", `{"a":[1,{"b":null}]}`, "[1,[2]]", "[]", "1e999", "[[-1e999]]"}
	// genUnknown are members under keys the grammar does not name.
	genUnknown = []string{`"meta":{"a":[1,{"b":null}],"c":"x\"y"}`, `"note":"x\\y"`, `"big":1e999`, `"":[[[]]]`, `"relx":true`}
	// genBodies are whole bodies that are not an op or an array of ops.
	genBodies = []string{"null", "5", `"x"`, "true", "[]", "[null]", "[1]", "[[]]", "", " \n", `[{"rel":"Sales"},]`,
		"{}\x00", "\xef\xbb\xbf{}", `{"rel":"Stores","values":["s1",1]}x`, `[{"rel":"Stores","values":["s1",1]}]{}`,
		`{"rel":5}`, `{"op":true}`, `{"values":"abc"}`, `{"new":{}}`, `{"values":[01]}`, `{"values":[1.]}`, `{"values":[-]}`,
		`{"values":[1e]}`, `{"values":["\x"]}`, `{"values":["\u12"]}`, "{\"values\":[\"a\nb\"]}", `{"rel":"Sales"`, `{"rel" "Sales"}`}
)

func (g *bodyGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

func (g *bodyGen) ws() string {
	if g.r.Intn(4) > 0 {
		return ""
	}
	return g.pick([]string{" ", "\n", "\t ", "\r\n"})
}

// cells renders one row of the given column kinds, now and then with a
// cell of the wrong type, a cell no column takes, or the wrong arity.
func (g *bodyGen) cells(kinds string) string {
	var cs []string
	for _, k := range kinds {
		pool := genNums
		if k == 'c' {
			pool = genCats
		}
		switch g.r.Intn(40) {
		case 0:
			pool = genOther
		case 1:
			if pool = genCats; k == 'c' {
				pool = genNums
			}
		}
		cs = append(cs, g.pick(pool))
	}
	switch g.r.Intn(30) {
	case 0:
		cs = cs[1:]
	case 1:
		cs = append(cs, "1")
	}
	return "[" + g.ws() + strings.Join(cs, g.ws()+","+g.ws()) + g.ws() + "]"
}

// op renders one op object.
func (g *bodyGen) op() string {
	rel := g.pick([]string{"Sales", "Items", "Stores"})
	kinds := genRels[rel]
	var members []string
	add := func(key, val string) { members = append(members, `"`+key+`"`+g.ws()+":"+g.ws()+val) }

	switch n := g.r.Intn(100); {
	case n < 80:
		add("rel", `"`+rel+`"`)
	case n < 84:
		add("rel", `"`+strings.Replace(rel, "e", `\u0065`, 1)+`"`)
	case n < 88:
		add("rel", `"Nope"`)
	case n < 91:
		add("rel", `""`)
	case n < 94:
		add("rel", "null")
	}
	op := g.pick([]string{"", "", "", "insert", "delete", "delete", "update", "update"})
	switch n := g.r.Intn(100); {
	case op == "" || n < 3:
	case n < 6:
		add("op", `""`)
	case n < 9:
		add("op", `"upsert"`)
	case n < 12:
		add("op", "null")
	case n < 15:
		add("op", `"`+strings.Replace(op, "e", `\u0065`, 1)+`"`)
	default:
		add("op", `"`+op+`"`)
	}
	row := g.cells(kinds)
	if live := g.live[rel]; op != "" && op != "insert" && len(live) > 0 && g.r.Intn(10) < 7 {
		row = live[g.r.Intn(len(live))]
	} else if op == "" || op == "insert" {
		g.live[rel] = append(g.live[rel], row)
	}
	switch n := g.r.Intn(100); {
	case n < 92:
		add("values", row)
	case n < 95:
		add("values", "null")
	}
	switch n := g.r.Intn(100); {
	case op != "update" && n < 90:
	case n < 80:
		// Keep the partition attribute, or the sharded tier refuses.
		cs := strings.SplitN(strings.Trim(row, "[] \t\r\n"), ",", len(kinds))
		cs[len(cs)-1] = g.pick(genNums)
		add("new", "["+strings.Join(cs, ",")+"]")
	case n < 88:
		add("new", g.cells(kinds))
	case n < 92:
		add("new", "null")
	case n < 96:
		add("new", "[]")
	}
	// A repeated key: the last value wins, except that null does not
	// unset a string.
	switch g.r.Intn(25) {
	case 0:
		members = append([]string{`"rel":"Nope"`, `"values":[1]`}, members...)
	case 1:
		add("rel", "null")
		add("op", "null")
	case 2:
		add("values", "null")
	case 3:
		add("new", "null")
	case 4:
		add("op", `"delete"`)
	}
	if g.r.Intn(6) == 0 {
		members = append(members, g.pick(genUnknown))
	}
	// Any key order, "values" before "rel" included.
	g.r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return "{" + g.ws() + strings.Join(members, g.ws()+","+g.ws()) + g.ws() + "}"
}

func (g *bodyGen) body() (method, body string) {
	method = "POST"
	if g.r.Intn(7) == 0 {
		method = "DELETE"
	}
	switch n := g.r.Intn(100); {
	case n < 8:
		return method, g.pick(genBodies)
	case n < 30:
		body = g.ws() + g.op() + g.ws()
	default:
		ops := make([]string, g.r.Intn(7))
		for i := range ops {
			ops[i] = g.op()
			if g.r.Intn(40) == 0 {
				ops[i] = "null"
			}
		}
		body = g.ws() + "[" + g.ws() + strings.Join(ops, g.ws()+","+g.ws()) + g.ws() + "]" + g.ws()
	}
	if g.r.Intn(50) == 0 && len(body) > 0 {
		body = body[:g.r.Intn(len(body))] // cut short
	}
	return method, body
}

// insertReply is what the test reads of an /insert reply.
type insertReply struct {
	Queued int `json:"queued"`
	Failed int `json:"failed"`
	Errors []struct {
		Index int `json:"index"`
	} `json:"errors"`
}

func (r insertReply) String() string {
	var idx []int
	for _, e := range r.Errors {
		idx = append(idx, e.Index)
	}
	return fmt.Sprintf("queued=%d failed=%d at %v", r.Queued, r.Failed, idx)
}

// twin is one of the two servers of the differential test. Batches of
// one op make the maintained sums a function of the op order alone, so
// that the twins can be compared bit for bit.
func newTwin(t *testing.T) (*borg.ShardedServer, *service) {
	t.Helper()
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded(contFeatures, borg.ShardOptions{
		ServerOptions: borg.ServerOptions{Payload: borg.PayloadCovar, Workers: 1, BatchSize: 1},
		Shards:        2,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, &service{srv: srv, queueLen: srv.QueueLen, highWater: 1 << 20}
}

// TestIngestDifferential applies generated bodies to twin servers, one
// through the wire decoder and one through the retired encoding/json
// path, and wants the same answer to every body and the same maintained
// state after it.
//
// The one intended divergence is not generated: encoding/json matched
// keys case-insensitively ("Rel", "VALUES", and by Unicode folding even
// "valueſ"); the wire decoder matches them exactly and skips those as
// unknown keys. TestIngestKeysMatchExactly pins that.
func TestIngestDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		newSrv, newSvc := newTwin(t)
		oldSrv, _ := newTwin(t)
		newH := newHandler(newSvc)
		oldH := http.NewServeMux()
		oldH.HandleFunc("POST /insert", retiredInsert(oldSrv, false))
		oldH.HandleFunc("DELETE /insert", retiredInsert(oldSrv, true))

		g := &bodyGen{r: rand.New(rand.NewSource(seed)), live: make(map[string][]string)}
		codes := make(map[int]int)
		for n := 0; n < 1500; n++ {
			method, body := g.body()
			newCode, newBody, _ := doHeader(newH, method, "/insert", body)
			oldCode, oldBody, _ := doHeader(oldH, method, "/insert", body)
			if newCode != oldCode {
				t.Fatalf("seed %d body %d: %s %q\nwire:    %d %s\nretired: %d %s", seed, n, method, body, newCode, newBody, oldCode, oldBody)
			}
			var newR, oldR insertReply
			if err := json.Unmarshal([]byte(newBody), &newR); err != nil {
				t.Fatalf("seed %d body %d: wire reply %q: %v", seed, n, newBody, err)
			}
			if err := json.Unmarshal([]byte(oldBody), &oldR); err != nil {
				t.Fatalf("seed %d body %d: retired reply %q: %v", seed, n, oldBody, err)
			}
			if newR.String() != oldR.String() {
				t.Fatalf("seed %d body %d: %s %q\nwire:    %v\nretired: %v", seed, n, method, body, newR, oldR)
			}
			codes[newCode]++
			if n%100 == 99 {
				sameState(t, fmt.Sprintf("seed %d after body %d", seed, n), newSrv, oldSrv)
			}
		}
		st := newSrv.Stats()
		t.Logf("seed %d: statuses %v, %d inserts and %d deletes applied, count %v", seed, codes, st.Inserts, st.Deletes, st.Count)
	}
}

// sameState flushes both servers and compares what they maintain.
func sameState(t *testing.T, when string, a, b *borg.ShardedServer) {
	t.Helper()
	// A delete of a tuple that is not live is the writer's sticky error,
	// on both sides or neither.
	if errA, errB := a.Flush(), b.Flush(); (errA == nil) != (errB == nil) {
		t.Fatalf("%s: flush: wire %v, retired %v", when, errA, errB)
	}
	sa, sb := a.CovarSnapshot(), b.CovarSnapshot()
	if sa.Inserts() != sb.Inserts() || sa.Deletes() != sb.Deletes() {
		t.Fatalf("%s: wire applied %d inserts and %d deletes, retired %d and %d", when, sa.Inserts(), sa.Deletes(), sb.Inserts(), sb.Deletes())
	}
	ca, cb := sa.Covar(), sb.Covar()
	same := math.Float64bits(ca.Count) == math.Float64bits(cb.Count)
	for i := range ca.Sum {
		same = same && math.Float64bits(ca.Sum[i]) == math.Float64bits(cb.Sum[i])
	}
	for i := range ca.Q {
		same = same && math.Float64bits(ca.Q[i]) == math.Float64bits(cb.Q[i])
	}
	if !same {
		t.Fatalf("%s: maintained statistics differ:\nwire:    %v %v %v\nretired: %v %v %v", when, ca.Count, ca.Sum, ca.Q, cb.Count, cb.Sum, cb.Q)
	}
}

// TestIngestKeysMatchExactly pins the intended divergence from the
// retired path: a key that differs from the documented one in case is an
// unknown key.
func TestIngestKeysMatchExactly(t *testing.T) {
	_, svc := newTwin(t)
	h := newHandler(svc)
	for _, body := range []string{
		`{"Rel": "Stores", "values": ["s1", 120]}`,
		`{"rel": "Stores", "VALUES": ["s1", 120]}`,
		`{"rel": "Stores", "valueſ": ["s1", 120]}`,
	} {
		if code, out, _ := doHeader(h, "POST", "/insert", body); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: %d %s, want 422", body, code, out)
		}
	}
	// The key under which the retired path found "op" no longer turns an
	// insert into a delete.
	code, out, _ := doHeader(h, "POST", "/insert", `{"rel": "Stores", "values": ["s1", 120], "OP": "delete"}`)
	if code != http.StatusOK {
		t.Fatalf("insert with an unknown OP key: %d %s", code, out)
	}
	if err := svc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := svc.srv.Stats(); st.Inserts != 1 || st.Deletes != 0 {
		t.Fatalf("applied %d inserts and %d deletes, want 1 and 0", st.Inserts, st.Deletes)
	}
}

// TestBodyTooLarge: a body over the route's cap is 413 on /insert and
// /v1/model, and the server goes on answering.
func TestBodyTooLarge(t *testing.T) {
	_, svc := newTwin(t)
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	post := func(path string, body []byte) (int, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	big := append(bytes.Repeat([]byte(" "), 9<<20), "[]"...)
	for _, path := range []string{"/insert", "/v1/model"} {
		if code, out := post(path, big); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("9 MB body to %s: %d %s, want 413", path, code, out)
		}
		if code, out := post("/insert", []byte(`{"rel": "Stores", "values": ["s1", 120]}`)); code != http.StatusOK {
			t.Fatalf("insert after the 413 from %s: %d %s", path, code, out)
		}
	}
}
