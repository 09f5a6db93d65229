package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"borg"
)

// newTestService starts a small sharded server behind the HTTP handler,
// mirroring main()'s wiring with an injectable queue reading.
func newTestService(t *testing.T, shards int) (*service, http.Handler) {
	t.Helper()
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, borg.ShardOptions{
		ServerOptions: borg.ServerOptions{Payload: borg.PayloadCovar, Workers: 1},
		Shards:        shards,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	svc := &service{srv: srv, queueLen: srv.QueueLen, highWater: 8}
	return svc, newHandler(svc)
}

// TestReadyzTransitions drives /readyz through its four states: ready
// under normal load, 503 "overloaded" while the queue reads over the
// high-water mark, 503 "failed" once the writer has reported an error,
// and 503 "draining" once shutdown flips the flag — while /healthz stays
// 200 throughout, being pure liveness.
func TestReadyzTransitions(t *testing.T) {
	svc, h := newTestService(t, 1)

	code, body, _ := doHeader(h, "GET", "/readyz", "")
	if code != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("fresh server readyz = %d %s, want 200 ready", code, body)
	}

	// Overload: the queue reads above the high-water mark.
	svc.queueLen = func() int { return svc.highWater + 1 }
	code, body, _ = doHeader(h, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"overloaded"`) {
		t.Fatalf("overloaded readyz = %d %s, want 503 overloaded", code, body)
	}
	var over struct {
		Queued    int `json:"queued"`
		HighWater int `json:"high_water"`
	}
	if err := json.Unmarshal([]byte(body), &over); err != nil {
		t.Fatalf("overloaded body: %v", err)
	}
	if over.Queued != svc.highWater+1 || over.HighWater != svc.highWater {
		t.Fatalf("overloaded body carries queued=%d high_water=%d, want %d and %d",
			over.Queued, over.HighWater, svc.highWater+1, svc.highWater)
	}
	if code, _, _ := doHeader(h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz degraded under load: %d, want 200", code)
	}

	// Exactly at the mark is still ready — the boundary is exclusive.
	svc.queueLen = func() int { return svc.highWater }
	if code, body, _ := doHeader(h, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatalf("readyz at high water = %d %s, want 200", code, body)
	}

	// Drained: back to ready.
	svc.queueLen = func() int { return 0 }
	if code, body, _ := doHeader(h, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatalf("drained readyz = %d %s, want 200", code, body)
	}

	// Failed: a delete of a tuple that was never live is the writer's
	// sticky error; the body still says how much is queued.
	svc.queueLen = svc.srv.QueueLen
	if code, body, _ := doHeader(h, "POST", "/insert", `{"rel": "Sales", "op": "delete", "values": ["ghost", "s1", 1]}`); code != http.StatusOK {
		t.Fatalf("delete of a never-live tuple: %d %s, want 200 (it fails when applied)", code, body)
	}
	if err := svc.srv.Flush(); err == nil {
		t.Fatal("flush after a delete of a never-live tuple reports no error")
	}
	code, body, _ = doHeader(h, "GET", "/readyz", "")
	var failed struct {
		Status, Error string
		Queued        *int
	}
	if err := json.Unmarshal([]byte(body), &failed); err != nil {
		t.Fatalf("failed body: %v", err)
	}
	if code != http.StatusServiceUnavailable || failed.Status != "failed" || failed.Error == "" || failed.Queued == nil || *failed.Queued != 0 {
		t.Fatalf("readyz after a writer error = %d %s, want 503 failed with the error and queued 0", code, body)
	}
	if code, _, _ := doHeader(h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz degraded after a writer error: %d, want 200", code)
	}

	// Draining for shutdown wins over everything else.
	svc.draining.Store(true)
	code, body, _ = doHeader(h, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining readyz = %d %s, want 503 draining", code, body)
	}
	if code, _, _ := doHeader(h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz degraded while draining: %d, want 200", code)
	}
}

// TestMetricsEndpoint checks the exposition endpoint end to end over a
// sharded server: content type, per-shard labelled series, and the
// /stats metrics block mirroring the registry.
func TestMetricsEndpoint(t *testing.T) {
	svc, h := newTestService(t, 2)
	rows := `[
		{"rel": "Sales", "values": ["patty", "s1", 3]},
		{"rel": "Sales", "values": ["bun", "s2", 4]},
		{"rel": "Items", "values": ["patty", "s1", 6]}
	]`
	if code, body, _ := doHeader(h, "POST", "/insert", rows); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	if err := svc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	// One request of each other class and route the HTTP series count: a
	// row error (422), a body error (400), a model nobody can train from
	// an empty join (409), and a /stats read.
	for _, req := range [][3]string{
		{"POST", "/insert", `{"rel": "Nope"}`}, {"DELETE", "/insert", "not json"},
		{"POST", "/v1/model", `{"kind": "linreg"}`}, {"GET", "/stats", ""},
	} {
		if code, body, _ := doHeader(h, req[0], req[1], req[2]); code/100 == 5 {
			t.Fatalf("%s %s: %d %s", req[0], req[1], code, body)
		}
	}

	code, body, hdr := doHeader(h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`borg_shard_routed_total{shard="0"}`,
		`borg_shard_routed_total{shard="1"}`,
		`borg_serve_inserts_total{shard="0"}`,
		"borg_shard_skew",
		"# TYPE borg_serve_queue_wait_ns histogram",
		`borg_http_requests_total{class="2xx",route="/insert"} 1`,
		`borg_http_requests_total{class="4xx",route="/insert"} 2`,
		`borg_http_requests_total{class="5xx",route="/insert"} 0`,
		`borg_http_requests_total{class="4xx",route="/v1/model"} 1`,
		`borg_http_requests_total{class="2xx",route="/stats"} 1`,
		fmt.Sprintf(`borg_http_request_bytes_total{route="/insert"} %d`, len(rows)+len(`{"rel": "Nope"}`)+len("not json")),
		`borg_http_request_bytes_total{route="/stats"} 0`,
		`borg_http_request_ns_count{route="/insert"} 3`,
		`borg_http_request_ns_count{route="/v1/model"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	code, body, _ = doHeader(h, "GET", "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st struct {
		Metrics []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if len(st.Metrics) < 15 {
		t.Fatalf("stats metrics block has %d series, want >= 15", len(st.Metrics))
	}
	names := make(map[string]bool)
	for _, p := range st.Metrics {
		names[p.Name] = true
	}
	for _, want := range []string{"borg_serve_queue_wait_ns", "borg_shard_skew", "borg_plan_drift"} {
		if !names[want] {
			t.Errorf("stats metrics block missing %s", want)
		}
	}
}

// TestHalfHeaderIsClosed: a client that starts a request and then sends
// nothing more is cut off by the server's ReadHeaderTimeout, not served
// a goroutine for ever. The configured timeout is scaled down so that
// the test waits milliseconds — a server left at net/http's zero "no
// timeout" would still scale to zero and fail here.
func TestHalfHeaderIsClosed(t *testing.T) {
	_, h := newTestService(t, 1)
	hs := newHTTPServer("", h)
	if hs.ReadHeaderTimeout != 5*time.Second || hs.ReadTimeout != 30*time.Second || hs.IdleTimeout != 120*time.Second || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v, read %v, idle %v, write %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout /= 50
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(l) }() // returns when the test closes the server
	defer hs.Close()

	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("POST /insert HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	// The server answers a timed-out header with nothing or with a 408,
	// then closes: either way the read ends before the deadline.
	if _, err := bufio.NewReader(c).ReadString(0); err == nil || time.Since(start) > 4*time.Second {
		t.Fatalf("connection with half a header still open after %v (%v)", time.Since(start), err)
	}
}

// TestOneshotSelfCheck runs the full CI smoke in-process at an
// interesting configuration, so `go test` alone exercises the same
// path the -oneshot flag does.
func TestOneshotSelfCheck(t *testing.T) {
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	feats := append(append([]string(nil), contFeatures...), catFeatures...)
	srv, err := q.ServeSharded(feats, borg.ShardOptions{
		ServerOptions: borg.ServerOptions{Payload: borg.PayloadCofactor, Workers: 1},
		Shards:        2,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc := &service{srv: srv, queueLen: srv.QueueLen, highWater: 1024}
	if err := selfCheck(srv, svc, newHandler(svc)); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBelowOneRefused runs main in a child process: a -queue the
// serving layer would resize leaves the readiness default at 0, so it
// must stop start-up and name the flag.
func TestQueueBelowOneRefused(t *testing.T) {
	if q := os.Getenv("BORG_SERVE_TEST_QUEUE"); q != "" {
		os.Args = []string{"borg-serve", "-oneshot", "-queue", q}
		main()
		return
	}
	for _, q := range []string{"0", "-1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestQueueBelowOneRefused$")
		cmd.Env = append(os.Environ(), "BORG_SERVE_TEST_QUEUE="+q)
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-queue") {
			t.Errorf("-queue %s: err %v, output %q; want a start-up failure naming -queue", q, err, out)
		}
	}
}

// TestNewLogger pins the flag parsing: every documented level and
// format builds, anything else is rejected.
func TestNewLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error"} {
		for _, format := range []string{"text", "json"} {
			if _, err := newLogger(level, format); err != nil {
				t.Errorf("newLogger(%q, %q): %v", level, format, err)
			}
		}
	}
	if _, err := newLogger("loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := newLogger("info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}
