// Command borg-serve runs the streaming-serving layer as an HTTP JSON
// service over a multi-tenant demo retail schema:
//
//	Sales(item, store, units)   Items(item, store, price)   Stores(store, area)
//
// Every relation carries the tenant key "store", so the service shards
// horizontally: -shards N hash-partitions ingest by -partition-by
// (default "store") across N independent serving shards — each with its
// own IVM maintainer and single-writer queue — while /stats and the
// model endpoints serve ring-merged global views. Tuples stream in
// through POST /insert (inserts, deletes, and updates) while reads serve
// snapshot-consistent statistics and freshly trained models to any
// number of concurrent clients — writes never block reads and reads
// never block writes.
//
// -payload selects the maintained ring statistics and, with them, the
// trainable model zoo:
//
//	covar     covariance triple: linreg, pca, kmeans
//	poly2     + lifted degree-2 ring: polyreg (continuous pairs)
//	cofactor  + categorical cofactor group maps over item and store:
//	          one-hot linreg, varying-coefficients polyreg, chowliu,
//	          ctree, svm  (the default)
//
// Usage:
//
//	borg-serve -addr :8080 -payload cofactor -shards 4 -partition-by store
//
// Every shard maintains its payload with F-IVM, one ring-valued view
// hierarchy; the higher- and first-order strategies are Figure 4
// baselines only (borg-bench -fig 4r).
//
// Observability: the service logs structured events (epoch
// publications, replans, rejected ops, slow batches) through log/slog —
// -log-level picks the floor (debug, info, warn, error) and -log-format
// the encoding (text or json); -slow-batch sets the batch-duration
// threshold above which a warning is logged. GET /metrics exposes every
// pipeline metric (queue wait, batch phase splits, publication and
// merge latencies, per-shard routing, plan drift, model-training
// telemetry) in the Prometheus text format with no external
// dependencies, and GET /readyz reports readiness for load balancers:
// 503 while draining for shutdown, after a writer error, or while the
// ingest queue exceeds -ready-high-water (default: the total queue
// capacity), 200 otherwise. /healthz stays pure liveness and never
// degrades under load. The listener gives a client 5 s to send a
// request's header, 30 s to send the request and 120 s of keep-alive
// idleness.
//
// -pprof additionally mounts the Go runtime profiling endpoints under
// /debug/pprof/ (opt-in; exposes internals — keep it off on untrusted
// networks, and treat /metrics the same way: series names reveal
// workload shape).
//
// API:
//
//	POST /insert    {"rel": "Sales", "values": ["patty", "s1", 3]}
//	                or a JSON array of such objects; values follow the
//	                schema (strings for categorical, numbers for
//	                continuous). Each object may carry "op": "insert"
//	                (default), "delete" (retract one equal-valued
//	                tuple), or "update" (retract "values", insert
//	                "new"). Responds {"queued": n}; if some array rows
//	                fail: 207 with per-row errors; if all fail: 400; a
//	                failing single object: 422.
//	                The body is scanned by borg's IngestJSON, not by
//	                encoding/json, and this is all of its grammar: the
//	                keys "rel", "op", "values" and "new" match exactly
//	                (case included), in any order; any other key is
//	                skipped with its value; of a repeated key the last
//	                value counts; null for "values" or "new" unsets it
//	                and for "rel" or "op" changes nothing; strings may
//	                use every JSON escape, and a lone surrogate or
//	                invalid UTF-8 becomes U+FFFD. Body-level errors
//	                answer 400 and enqueue nothing: anything
//	                json.Valid refuses (nesting past 10 000 included),
//	                a key of the wrong JSON type, an op that is not an
//	                object or null, and a number in "values" or "new"
//	                beyond float64 (1e999). Everything else — unknown
//	                relation or op, wrong arity, a cell of the wrong
//	                type — is a row-level error: the other rows are
//	                still attempted. Over 8 MB: 413.
//	GET  /stats     {"epoch", "inserts", "deletes", "queued", "count",
//	                 "means": {...}, "shards": [...], "plan": {...},
//	                 "metrics": [...], "last_error": ...}; "metrics" is
//	                 the full registry snapshot (every series with its
//	                 value, and p50/p95/p99 for histograms) as JSON, for
//	                 humans and scripts that don't speak Prometheus.
//	POST /v1/model  The snapshot model zoo behind one JSON request:
//	                  {"kind": "linreg|polyreg|pca|kmeans|chowliu|ctree|svm",
//	                   "params": {"response": "units", "lambda": 0.001,
//	                              "k": 2, "max_iters": 50000, "tol": 1e-10,
//	                              "max_depth": 4, "min_rows": 2},
//	                   "predict": {"values": {"price": 6, "area": 120},
//	                               "cats": {"item": "patty", "store": "s1"}}}
//	                Every kind trains purely from the current epoch's
//	                ring statistics (ring-merged across shards),
//	                identical to an unsharded model. "params" keys are
//	                per kind (all optional); the optional "predict"
//	                object evaluates the freshly trained model and adds
//	                "prediction" (regressions), "projection" (pca), or
//	                "decision"/"class" (svm) to the response. Bad kinds
//	                or params are 400; a model kind whose ring payload
//	                the server does not maintain, or an empty join, is
//	                409 — never a 200 with NaNs in the body. Over 1 MB:
//	                413.
//	GET  /metrics   Prometheus text exposition (text/plain; version=0.0.4)
//	                of every maintained series: borg_serve_* (queue wait,
//	                batch sizes, apply phase splits, publication and
//	                flush latency, epoch and epoch age, queue depth,
//	                rejected ops), borg_plan_* (replans, replan latency,
//	                drift), borg_shard_* (per-shard routing, merge
//	                latency, memo hits, skew), borg_model_* (per-kind
//	                training latency, counts, typed errors), borg_http_*
//	                (requests by status class, body bytes and handler
//	                latency of /insert, /v1/model and /stats).
//	GET  /healthz   200 {"status": "ok"} — pure liveness; always 200
//	                while the process serves HTTP.
//	GET  /readyz    200 {"status": "ready"} when accepting load; 503
//	                {"status": "draining"|"failed"|"overloaded"} during
//	                shutdown, once the writer has reported an error
//	                (with "error"; what /stats calls "last_error"), or
//	                when the ingest queue exceeds -ready-high-water.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"borg"
	"borg/internal/ivm"
	"borg/internal/obs"
)

// contFeatures are the demo schema's continuous features; catFeatures
// the categorical ones maintained as cofactor group-by slots when
// -payload cofactor.
var (
	contFeatures = []string{"units", "price", "area"}
	catFeatures  = []string{"item", "store"}
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	batch := flag.Int("batch", 64, "most ops per applied batch, and most an epoch trails by under backlog")
	queue := flag.Int("queue", 1024, "ingest queue depth per shard, at least 1 (backpressure beyond it)")
	workers := flag.Int("workers", 2, "no effect on serving: F-IVM ingest is serial per shard (kept for existing scripts)")
	payload := flag.String("payload", "cofactor", `ring payload: "covar", "poly2" (lifted degree-2, enables polyreg pairs), or "cofactor" (categorical group maps, enables the full zoo)`)
	shards := flag.Int("shards", 1, "serving shards; ingest is hash-partitioned across them and reads are ring-merged")
	partitionBy := flag.String("partition-by", "store", "partition attribute (must appear in every relation of the join)")
	oneShot := flag.Bool("oneshot", false, "start, self-check the endpoints, and exit (CI smoke)")
	pprofOn := flag.Bool("pprof", false, "expose Go runtime profiling under /debug/pprof/ (opt-in; do not enable on untrusted networks)")
	logLevel := flag.String("log-level", "info", "structured log floor: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", `structured log encoding: "text" or "json"`)
	slowBatch := flag.Duration("slow-batch", 100*time.Millisecond, "warn when one maintenance batch takes longer than this")
	readyHighWater := flag.Int("ready-high-water", 0, "queued ops beyond which /readyz reports 503 (0: total queue capacity)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		log.Fatalf("borg-serve: %v", err)
	}
	pl, err := ivm.ParsePayload(*payload)
	if err != nil {
		log.Fatalf("borg-serve: %v", err)
	}
	if *queue < 1 {
		// The readiness default below is derived from it: a queue the
		// serving layer would silently resize reads as always overloaded.
		log.Fatalf("borg-serve: -queue must be at least 1, got %d", *queue)
	}
	opt := borg.ServerOptions{
		BatchSize:          *batch,
		QueueDepth:         *queue,
		Workers:            *workers,
		Payload:            pl,
		Logger:             logger,
		SlowBatchThreshold: *slowBatch,
	}

	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		log.Fatal(err)
	}
	features := contFeatures
	if opt.Payload == borg.PayloadCofactor {
		features = append(append([]string(nil), contFeatures...), catFeatures...)
	}
	srv, err := q.ServeSharded(features, borg.ShardOptions{
		ServerOptions: opt,
		Shards:        *shards,
		PartitionBy:   *partitionBy,
	})
	if err != nil {
		log.Fatal(err)
	}

	highWater := *readyHighWater
	if highWater <= 0 {
		// Default: the tier's total queue capacity — beyond it, enqueues
		// block anyway, so new load should go elsewhere.
		highWater = *queue * srv.NumShards()
	}
	svc := &service{srv: srv, queueLen: srv.QueueLen, highWater: highWater}
	handler := newHandler(svc)
	if *pprofOn {
		handler = withPprof(handler)
	}
	httpSrv := newHTTPServer(*addr, handler)
	if *oneShot {
		if err := selfCheck(srv, svc, httpSrv.Handler); err != nil {
			log.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("borg-serve: one-shot self-check passed")
		return
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		// Flip readiness before closing listeners so load balancers stop
		// routing while in-flight requests drain.
		svc.draining.Store(true)
		shutCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		_ = httpSrv.Shutdown(shutCtx)
	}()
	log.Printf("borg-serve: %s payload, %d shard(s) partitioned by %q, listening on %s", srv.Payload(), srv.NumShards(), *partitionBy, *addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		log.Printf("borg-serve: flush: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}

// allKinds is every model kind the zoo can serve, in documentation
// order.
var allKinds = []string{"linreg", "polyreg", "pca", "kmeans", "chowliu", "ctree", "svm"}

// selfCheck drives every endpoint once through the handler (no network),
// so CI can smoke-test the whole service path in one process — at any
// shard count and payload, since the endpoints are shard-transparent and
// payload gating is part of the contract under test.
func selfCheck(srv *borg.ShardedServer, svc *service, h http.Handler) error {
	do := func(method, path, body string) (int, string) {
		code, b, _ := doHeader(h, method, path, body)
		return code, b
	}
	pl := srv.Payload()
	count := func() (float64, error) {
		if err := srv.Flush(); err != nil {
			return 0, err
		}
		code, body := do("GET", "/stats", "")
		if code != http.StatusOK {
			return 0, fmt.Errorf("stats: %d %s", code, body)
		}
		var stats struct {
			Count   float64 `json:"count"`
			Deletes uint64  `json:"deletes"`
			Queued  int     `json:"queued"`
			Shards  []struct {
				Shard  int    `json:"shard"`
				Queued int    `json:"queued"`
				Root   string `json:"root"`
			} `json:"shards"`
			Plan struct {
				Root  string  `json:"root"`
				Depth int     `json:"depth"`
				Width int     `json:"width"`
				Drift float64 `json:"drift"`
			} `json:"plan"`
		}
		if err := json.Unmarshal([]byte(body), &stats); err != nil {
			return 0, fmt.Errorf("stats body: %v", err)
		}
		if len(stats.Shards) != srv.NumShards() {
			return 0, fmt.Errorf("stats reports %d shard rows, want %d: %s", len(stats.Shards), srv.NumShards(), body)
		}
		// After the Flush barrier every shard's queue is drained.
		if stats.Queued != 0 {
			return 0, fmt.Errorf("queued = %d after flush: %s", stats.Queued, body)
		}
		// The plan block must always describe a real plan: a named root,
		// a positive variable-order depth, width ≥ 1 (1 = acyclic), and
		// a drift ratio ≥ 1, with every shard reporting the same root.
		if stats.Plan.Root == "" || stats.Plan.Depth <= 0 || stats.Plan.Width < 1 || stats.Plan.Drift < 1 {
			return 0, fmt.Errorf("stats plan block is degenerate: %s", body)
		}
		for _, sh := range stats.Shards {
			if sh.Root != stats.Plan.Root {
				return 0, fmt.Errorf("shard %d planned at root %q, tier at %q: %s", sh.Shard, sh.Root, stats.Plan.Root, body)
			}
		}
		return stats.Count, nil
	}
	// The degenerate-snapshot contract, before anything streams in: an
	// empty join trains NO model of any kind — 409, never a 200 carrying
	// NaNs — whether because the join is empty or because the payload is
	// not maintained; /stats stays a healthy 200 reporting count 0.
	for _, kind := range allKinds {
		code, body := do("POST", "/v1/model", `{"kind": "`+kind+`"}`)
		if code != http.StatusConflict {
			return fmt.Errorf("v1 model kind=%s on empty join: %d %s, want 409", kind, code, body)
		}
		if strings.Contains(body, "NaN") {
			return fmt.Errorf("v1 model kind=%s on empty join leaked NaN: %s", kind, body)
		}
	}
	if c, err := count(); err != nil || c != 0 {
		return fmt.Errorf("stats on empty join = %v, want 0 (%v)", c, err)
	}

	if code, body := do("POST", "/insert", `[
		{"rel": "Items", "values": ["patty", "s1", 6]},
		{"rel": "Items", "values": ["bun", "s2", 2]},
		{"rel": "Stores", "values": ["s1", 120]},
		{"rel": "Stores", "values": ["s2", 80]},
		{"rel": "Sales", "values": ["patty", "s1", 3]},
		{"rel": "Sales", "values": ["patty", "s1", 5]},
		{"rel": "Sales", "values": ["bun", "s2", 4]}
	]`); code != http.StatusOK {
		return fmt.Errorf("insert: %d %s", code, body)
	}
	if c, err := count(); err != nil || c != 3 {
		return fmt.Errorf("count after inserts = %v, want 3 (%v)", c, err)
	}

	// The model zoo over the v1 route: every payload-supported kind
	// trains from the same epoch statistics; the rest refuse with 409.
	var zoo, gated []string
	zoo = append(zoo, `{"kind": "linreg", "params": {"response": "units", "lambda": 0.001}}`,
		`{"kind": "linreg", "params": {"max_iters": 20000, "tol": 1e-8}}`,
		`{"kind": "pca", "params": {"k": 2}}`,
		`{"kind": "kmeans", "params": {"k": 3}}`)
	switch pl {
	case borg.PayloadPoly2:
		zoo = append(zoo, `{"kind": "polyreg", "params": {"response": "units"}}`)
		gated = append(gated, "chowliu", "ctree", "svm")
	case borg.PayloadCofactor:
		zoo = append(zoo,
			`{"kind": "polyreg", "params": {"response": "units"}}`,
			`{"kind": "chowliu"}`,
			`{"kind": "ctree", "params": {"response": "units", "max_depth": 3}}`,
			`{"kind": "svm", "params": {"response": "units", "lambda": 0.01}}`)
	default:
		gated = append(gated, "polyreg", "chowliu", "ctree", "svm")
	}
	for _, body := range zoo {
		if code, out := do("POST", "/v1/model", body); code != http.StatusOK {
			return fmt.Errorf("v1 model %s: %d %s", body, code, out)
		}
	}
	for _, kind := range gated {
		if code, out := do("POST", "/v1/model", `{"kind": "`+kind+`"}`); code != http.StatusConflict {
			return fmt.Errorf("v1 model kind=%s without its payload: %d %s, want 409", kind, code, out)
		}
	}
	// Predictions in the request that trains the model: a regression
	// evaluates on continuous values plus category strings (ignored
	// without the cofactor payload), pca projects.
	var linreg struct {
		Converged  bool     `json:"converged"`
		Prediction *float64 `json:"prediction"`
	}
	code, body := do("POST", "/v1/model", `{
		"kind": "linreg", "params": {"response": "units"},
		"predict": {"values": {"price": 6, "area": 120}, "cats": {"item": "patty", "store": "s1"}}}`)
	if err := json.Unmarshal([]byte(body), &linreg); err != nil || code != http.StatusOK || !linreg.Converged || linreg.Prediction == nil {
		return fmt.Errorf("v1 linreg predict, convergence not reported: %d %s (%v)", code, body, err)
	}
	code, body = do("POST", "/v1/model", `{"kind": "pca", "params": {"k": 1}, "predict": {"values": {"units": 4, "price": 6, "area": 120}}}`)
	if code != http.StatusOK || !strings.Contains(body, "projection") {
		return fmt.Errorf("v1 pca projection: %d %s", code, body)
	}
	if pl == borg.PayloadCofactor {
		code, body = do("POST", "/v1/model", `{
			"kind": "svm", "params": {"response": "units"},
			"predict": {"values": {"price": 6, "area": 120}, "cats": {"item": "patty", "store": "s1"}}}`)
		if code != http.StatusOK || !strings.Contains(body, "class") {
			return fmt.Errorf("v1 svm classify: %d %s", code, body)
		}
		// A predict body that omits a categorical feature is a client
		// error, not a server fault.
		if code, body := do("POST", "/v1/model", `{
			"kind": "linreg", "params": {"response": "units"},
			"predict": {"values": {"price": 6, "area": 120}}}`); code != http.StatusBadRequest {
			return fmt.Errorf("v1 predict missing cats: %d %s, want 400", code, body)
		}
	}
	// Malformed model requests are client errors (400), not server
	// faults.
	for _, body := range []string{
		`{"kind": "transformer"}`,
		`{"params": {"response": "ghost"}}`,
		`{"params": {"lambda": "banana"}}`,
		`{"params": {"lambda": -1}}`,
		`{"kind": "pca", "params": {"k": "zero"}}`,
		`{"kind": "kmeans", "params": {"k": -3}}`,
		`{"params": {"max_iters": -1}}`,
		`{"params": {"tol": -1}}`,
		`{"kind": "ctree", "params": {"max_depth": -1}}`,
		`{"kind": "ctree", "params": {"min_rows": "banana"}}`,
		`{"kind": "kmeans", "predict": {"values": {"price": 6}}}`,
		`not json`,
	} {
		if code, out := do("POST", "/v1/model", body); code != http.StatusBadRequest {
			return fmt.Errorf("v1 model %s: %d %s, want 400", body, code, out)
		}
	}
	if code, body := do("GET", "/healthz", ""); code != http.StatusOK {
		return fmt.Errorf("healthz: %d %s", code, body)
	}
	// Readiness transitions, driven through the injectable queue reading:
	// ready under normal load, 503 "overloaded" while the queue reads
	// over the high-water mark, ready again once it drains.
	if code, body := do("GET", "/readyz", ""); code != http.StatusOK || !strings.Contains(body, "ready") {
		return fmt.Errorf("readyz: %d %s", code, body)
	}
	liveQueue := svc.queueLen
	svc.queueLen = func() int { return svc.highWater + 1 }
	code, body = do("GET", "/readyz", "")
	svc.queueLen = liveQueue
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded") {
		return fmt.Errorf("readyz over high water: %d %s, want 503 overloaded", code, body)
	}
	if code, body := do("GET", "/readyz", ""); code != http.StatusOK {
		return fmt.Errorf("readyz did not recover after drain: %d %s", code, body)
	}
	if code, body := do("POST", "/insert", `{"rel": "Nope", "values": []}`); code != http.StatusUnprocessableEntity {
		return fmt.Errorf("bad insert accepted: %d %s", code, body)
	}

	// Retraction path: an op:"delete" row, an op:"update" correction,
	// and the DELETE method all maintain the same statistics.
	if code, body := do("POST", "/insert", `{"rel": "Sales", "values": ["patty", "s1", 5], "op": "delete"}`); code != http.StatusOK {
		return fmt.Errorf("delete op: %d %s", code, body)
	}
	if c, err := count(); err != nil || c != 2 {
		return fmt.Errorf("count after delete = %v, want 2 (%v)", c, err)
	}
	if code, body := do("POST", "/insert", `{"rel": "Sales", "values": ["patty", "s1", 3], "op": "update", "new": ["patty", "s1", 7]}`); code != http.StatusOK {
		return fmt.Errorf("update op: %d %s", code, body)
	}
	if c, err := count(); err != nil || c != 2 {
		return fmt.Errorf("count after update = %v, want 2 (%v)", c, err)
	}
	if code, body := do("DELETE", "/insert", `[
		{"rel": "Sales", "values": ["patty", "s1", 7]},
		{"rel": "Sales", "values": ["bun", "s2", 4]}
	]`); code != http.StatusOK {
		return fmt.Errorf("DELETE method: %d %s", code, body)
	}
	if c, err := count(); err != nil || c != 0 {
		return fmt.Errorf("count after DELETE = %v, want 0 (%v)", c, err)
	}
	if code, body := do("DELETE", "/insert", `{"rel": "Sales", "values": ["x", "y", 1], "op": "insert"}`); code != http.StatusUnprocessableEntity {
		return fmt.Errorf("insert op on DELETE method accepted: %d %s", code, body)
	}

	// Array status semantics: partial failure is 207 with per-row
	// errors, total failure is 400 — never a blanket 200.
	code, body = do("POST", "/insert", `[
		{"rel": "Items", "values": ["onion", "s1", 2]},
		{"rel": "Nope", "values": []}
	]`)
	if code != http.StatusMultiStatus {
		return fmt.Errorf("partial-failure array: %d %s, want 207", code, body)
	}
	var partial struct {
		Queued int `json:"queued"`
		Failed int `json:"failed"`
		Errors []struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		} `json:"errors"`
	}
	if err := json.Unmarshal([]byte(body), &partial); err != nil {
		return fmt.Errorf("partial-failure body: %v", err)
	}
	if partial.Queued != 1 || partial.Failed != 1 || len(partial.Errors) != 1 || partial.Errors[0].Index != 1 {
		return fmt.Errorf("partial-failure payload wrong: %s", body)
	}
	if code, body := do("POST", "/insert", `[{"rel": "Nope", "values": []}, {"rel": "Sales", "values": []}]`); code != http.StatusBadRequest {
		return fmt.Errorf("all-failed array: %d %s, want 400", code, body)
	}

	// Churned-to-empty is the same degenerate state as never-populated:
	// every Sales row was retracted above, so the join is empty again and
	// every trainer must refuse with 409 — the bug class this contract
	// rules out is exactly a 200 full of NaNs here.
	for _, kind := range allKinds {
		code, body := do("POST", "/v1/model", `{"kind": "`+kind+`"}`)
		if code != http.StatusConflict {
			return fmt.Errorf("v1 model kind=%s on churned-to-empty join: %d %s, want 409", kind, code, body)
		}
	}

	// Last, with every endpoint's traffic behind us: the exposition must
	// carry the whole pipeline's series with values that traffic implies,
	// and /stats must mirror the registry in its "metrics" block.
	if err := checkMetrics(h); err != nil {
		return err
	}
	code, body = do("GET", "/stats", "")
	if code != http.StatusOK {
		return fmt.Errorf("stats: %d %s", code, body)
	}
	var withMetrics struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &withMetrics); err != nil {
		return fmt.Errorf("stats metrics block: %v", err)
	}
	if len(withMetrics.Metrics) < 15 {
		return fmt.Errorf("stats metrics block has %d series, want >= 15", len(withMetrics.Metrics))
	}
	return nil
}

// checkMetrics scrapes GET /metrics and asserts the exposition is
// healthy after the self-check's known traffic: the Prometheus text
// content type, at least 15 metric families spanning the serve, plan,
// shard, and model layers, and values the traffic implies on the core
// series.
func checkMetrics(h http.Handler) error {
	code, body, hdr := doHeader(h, "GET", "/metrics", "")
	if code != http.StatusOK {
		return fmt.Errorf("metrics: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("metrics content type %q, want text/plain", ct)
	}
	if families := strings.Count(body, "# TYPE "); families < 15 {
		return fmt.Errorf("metrics exposition has %d families, want >= 15", families)
	}
	// sum folds every sample of one series name across its label sets —
	// under -shards N the serve series split into shard="i" children.
	sum := func(name string) (float64, int) {
		var total float64
		n := 0
		for _, line := range strings.Split(body, "\n") {
			rest, ok := strings.CutPrefix(line, name)
			if !ok {
				continue
			}
			i := strings.IndexByte(rest, ' ')
			if i < 0 {
				continue
			}
			if labels := rest[:i]; labels != "" && (!strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}")) {
				continue // a longer name that shares the prefix
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rest[i:]), 64)
			if err != nil {
				continue
			}
			total += v
			n++
		}
		return total, n
	}
	for _, c := range []struct {
		series string
		min    float64
	}{
		{"borg_serve_inserts_total", 7},       // the seed rows streamed in
		{"borg_serve_queue_wait_ns_count", 7}, // each op waited in a queue
		{"borg_serve_publish_ns_count", 1},    // at least one epoch published
		{"borg_serve_batch_size_count", 1},    // at least one batch applied
		{"borg_plan_drift", 1},                // drift ratio is >= 1 by definition
		{"borg_shard_routed_total", 7},        // every op routed through the tier
		{"borg_shard_skew", 1},                // skew ratio is >= 1 by definition
		{"borg_model_train_total", 4},         // the zoo round trained >= 4 kinds
		{"borg_model_train_errors_total", 7},  // an empty-join refusal per kind, twice
		{"borg_serve_rejected_ops_total", 0},  // present even when nothing rejected
		{"borg_serve_epoch_age_seconds", 0},   // scrape-time gauge exists
	} {
		got, n := sum(c.series)
		if n == 0 {
			return fmt.Errorf("metrics exposition is missing %s", c.series)
		}
		if got < c.min {
			return fmt.Errorf("%s = %v, want >= %v", c.series, got, c.min)
		}
	}
	return nil
}

// doHeader drives one request through the handler and returns status,
// body, and response headers.
func doHeader(h http.Handler, method, path, body string) (int, string, http.Header) {
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Result().Header
}

// withPprof mounts the Go runtime profiling endpoints beside the
// service handler — CPU and heap profiles of a live ingest under
// /debug/pprof/, the standard way to see where a slow multi-core
// ingest actually spends its time. Opt-in via -pprof only: the
// endpoints expose internals and cost CPU while profiling.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// newLogger builds the service's structured logger from the -log-level
// and -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// service is the HTTP-facing state: the serving tier plus the readiness
// inputs. queueLen is injectable so tests can exercise the overload
// path without actually saturating a queue.
type service struct {
	srv       *borg.ShardedServer
	queueLen  func() int
	highWater int
	// draining flips once at shutdown, before listeners close, so
	// /readyz turns 503 while in-flight requests finish.
	draining atomic.Bool
}

// newHTTPServer is the listener's configuration. The timeouts bound what
// a client can hold open without sending: a header in 5 s, a whole
// request in 30 s, an idle keep-alive connection for 120 s. There is no
// WriteTimeout, because /debug/pprof/profile?seconds=N streams for N
// seconds.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// reqState is what a request to an instrumented route uses beyond its
// handler's locals, pooled so that a request allocates none of it: the
// body buffer, the reply buffer, and the response writer that notes the
// status for the route's metrics.
type reqState struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
	out    []byte
}

var reqPool = sync.Pool{New: func() any { return new(reqState) }}

func (st *reqState) WriteHeader(code int) {
	st.status = code
	st.ResponseWriter.WriteHeader(code)
}

// readBody reads the request body, at most limit bytes of it, into the
// pooled buffer, sized from Content-Length when the client sent one.
func (st *reqState) readBody(r *http.Request, limit int64) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n <= limit {
		st.body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to find EOF in
	}
	_, err := st.body.ReadFrom(http.MaxBytesReader(st.ResponseWriter, r.Body, limit))
	return st.body.Bytes(), err
}

// bodyStatus is the status for a body that could not be read: 413 when
// it is over the route's cap, else 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// routeMetrics are one route's HTTP series, nil handles when the server
// has no registry.
type routeMetrics struct {
	class [3]*obs.Counter // 2xx, 4xx, 5xx
	bytes *obs.Counter
	ns    *obs.Histogram
}

// handle registers fn under pattern as an instrumented route: fn gets
// the pooled request state as its response writer, and the route's
// request count by status class, request body bytes and latency are
// recorded when the server has a registry. Only the three routes that
// carry load are instrumented: a histogram is 15 kB, walked by every
// /stats.
func (svc *service) handle(mux *http.ServeMux, pattern, route string, fn func(st *reqState, r *http.Request)) {
	var m *routeMetrics
	if reg := svc.srv.Metrics(); reg != nil {
		m = &routeMetrics{
			bytes: reg.Counter("borg_http_request_bytes_total", "Request body bytes read, by route.", obs.Labels{"route": route}),
			ns:    reg.Histogram("borg_http_request_ns", "Nanoseconds from a request reaching its handler to the handler returning, by route.", obs.Labels{"route": route}),
		}
		for i, class := range []string{"2xx", "4xx", "5xx"} {
			m.class[i] = reg.Counter("borg_http_requests_total", "Requests answered, by route and status class.", obs.Labels{"route": route, "class": class})
		}
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := reqPool.Get().(*reqState)
		st.ResponseWriter, st.status = w, http.StatusOK
		st.body.Reset()
		fn(st, r)
		if m != nil {
			class := 0
			if st.status >= 400 {
				class = min(st.status/100-3, 2)
			}
			m.class[class].Inc()
			m.bytes.Add(uint64(st.body.Len()))
			m.ns.Observe(int64(time.Since(start)))
		}
		st.ResponseWriter = nil
		if st.body.Cap() <= 1<<20 { // a rare huge body is not worth pinning
			reqPool.Put(st)
		}
	})
}

// jsonContentType is the Content-Type of every reply, shared so that
// setting it allocates no slice.
var jsonContentType = []string{"application/json"}

// newHandler wires the endpoints over a running (possibly sharded)
// server.
func newHandler(svc *service) http.Handler {
	srv := svc.srv
	mux := http.NewServeMux()
	ingest := func(forceDelete bool) func(*reqState, *http.Request) {
		return func(st *reqState, r *http.Request) {
			body, err := st.readBody(r, 8<<20)
			if err != nil {
				httpError(st, bodyStatus(err), err)
				return
			}
			res, err := srv.IngestJSON(body, forceDelete)
			if err != nil {
				httpError(st, http.StatusBadRequest, err)
				return
			}
			if res.Errors == nil {
				st.Header()["Content-Type"] = jsonContentType
				st.out = append(strconv.AppendInt(append(st.out[:0], `{"queued":`...), int64(res.Rows), 10), "}\n"...)
				_, _ = st.Write(st.out) // a client that went away is net/http's to report
				return
			}
			// Array bodies are applied item by item, not atomically:
			// every row is attempted and the response carries per-row
			// errors, so clients retry exactly the failed rows. The
			// status distinguishes total failure (400), partial failure
			// (207), and success (200); a failing single-object body
			// stays 422 as before.
			type rowErr struct {
				Index int    `json:"index"`
				Error string `json:"error"`
			}
			var errs []rowErr
			for i, err := range res.Errors {
				if err != nil {
					errs = append(errs, rowErr{Index: i, Error: err.Error()})
				}
			}
			queued := res.Rows - len(errs)
			switch {
			case !res.Array:
				writeJSON(st, http.StatusUnprocessableEntity, map[string]any{"error": errs[0].Error, "queued": 0})
			case queued == 0:
				writeJSON(st, http.StatusBadRequest, map[string]any{"queued": 0, "failed": len(errs), "errors": errs})
			default:
				writeJSON(st, http.StatusMultiStatus, map[string]any{"queued": queued, "failed": len(errs), "errors": errs})
			}
		}
	}
	svc.handle(mux, "POST /insert", "/insert", ingest(false))
	svc.handle(mux, "DELETE /insert", "/insert", ingest(true))
	svc.handle(mux, "GET /stats", "/stats", func(w *reqState, r *http.Request) {
		// One merged snapshot feeds every aggregate field, so those
		// counters are mutually consistent; "queued" and the per-shard
		// rows are inherently live readings taken alongside (each shard
		// row is itself consistent — one snapshot load per shard).
		snap := srv.CovarSnapshot()
		means := make(map[string]float64, len(contFeatures))
		for _, f := range contFeatures {
			m, err := snap.Mean(f)
			if errors.Is(err, borg.ErrEmptySnapshot) {
				// /stats is a health view, not a trainer: an empty join is
				// a normal state here, reported as count 0 with zero means
				// rather than an error status.
				m = 0
			} else if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			means[f] = m
		}
		st := srv.Stats()
		shardRows := make([]map[string]any, len(st.Shards))
		for i, row := range st.Shards {
			shardRows[i] = map[string]any{
				"shard":   i,
				"epoch":   row.Epoch,
				"inserts": row.Inserts,
				"deletes": row.Deletes,
				"queued":  row.Queued,
				"count":   row.Count,
				"root":    row.Root,
				"drift":   row.Drift,
				"replans": row.Replans,
			}
		}
		var lastErr any
		if err := srv.Err(); err != nil {
			lastErr = err.Error()
		}
		// The registry snapshot rides along for humans and scripts that
		// don't speak the Prometheus text format: every series with its
		// value, plus count/sum/p50/p95/p99 for the histograms.
		var metrics any
		if reg := srv.Metrics(); reg != nil {
			metrics = reg.Snapshot()
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch":   snap.Epoch(),
			"inserts": snap.Inserts(),
			"deletes": snap.Deletes(),
			"queued":  st.Queued,
			"count":   snap.Count(),
			"means":   means,
			"shards":  shardRows,
			// The plan block is the operator's first stop before
			// profiling a slow server: which root the maintainers are
			// built under, how deep/wide the variable order is, and how
			// far churn has drifted the live sizes from that choice.
			"plan": map[string]any{
				"root":    st.Root,
				"depth":   st.PlanDepth,
				"width":   st.PlanWidth,
				"drift":   st.Drift,
				"replans": st.Replans,
			},
			"metrics":    metrics,
			"last_error": lastErr,
		})
	})
	svc.handle(mux, "POST /v1/model", "/v1/model", func(w *reqState, r *http.Request) {
		body, err := w.readBody(r, 1<<20)
		if err != nil {
			httpError(w, bodyStatus(err), err)
			return
		}
		var req v1ModelReq
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad model body: %v", err))
			return
		}
		serveModel(w, srv, req)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := srv.Metrics()
		if reg == nil {
			httpError(w, http.StatusNotFound, errors.New("metrics are disabled on this server"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteExposition(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and serving HTTP. Load-based
		// degradation belongs to /readyz — a wedged-but-alive server must
		// not get restarted by its liveness probe for being busy.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if svc.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		if err := srv.Err(); err != nil {
			// The writer's failure is sticky: what this server reports
			// from here on is not what its clients sent.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "failed", "error": err.Error(), "queued": svc.queueLen()})
			return
		}
		if q := svc.queueLen(); q > svc.highWater {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "overloaded", "queued": q, "high_water": svc.highWater,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "queued": svc.queueLen(), "high_water": svc.highWater})
	})
	return mux
}

// v1ModelReq is the POST /v1/model body: one kind, its parameters, and
// an optional evaluation of the freshly trained model.
type v1ModelReq struct {
	Kind    string     `json:"kind"`
	Params  v1Params   `json:"params"`
	Predict *v1Predict `json:"predict,omitempty"`
}

// v1Params carries every kind's tuning knobs; keys irrelevant to the
// requested kind are ignored, malformed values are 400.
type v1Params struct {
	Response string   `json:"response,omitempty"`
	Lambda   *float64 `json:"lambda,omitempty"`
	K        int      `json:"k,omitempty"`
	MaxIters int      `json:"max_iters,omitempty"`
	Tol      float64  `json:"tol,omitempty"`
	MaxDepth int      `json:"max_depth,omitempty"`
	MinRows  float64  `json:"min_rows,omitempty"`
}

// v1Predict evaluates the trained model on continuous values and
// category strings.
type v1Predict struct {
	Values map[string]float64 `json:"values"`
	Cats   map[string]string  `json:"cats,omitempty"`
}

// serveModel validates, trains, optionally evaluates, and renders one
// POST /v1/model request.
func serveModel(w http.ResponseWriter, srv *borg.ShardedServer, req v1ModelReq) {
	p, err := req.validate()
	if err != nil {
		// Malformed client input — unknown kind, unknown response
		// attribute, out-of-range numbers — is 400, not 500: nothing
		// broke on the server.
		httpError(w, http.StatusBadRequest, err)
		return
	}
	snap := srv.CovarSnapshot()
	body, err := trainModel(snap, p, req.Predict)
	if err != nil {
		httpError(w, modelStatus(err), err)
		return
	}
	body["epoch"] = snap.Epoch()
	body["count"] = snap.Count()
	body["kind"] = p.kind
	writeJSON(w, http.StatusOK, body)
}

// modelParams is the validated parameter set of one model-zoo request.
type modelParams struct {
	kind     string
	response string
	lambda   float64
	k        int
	gd       borg.GDOptions
	tree     borg.TreeOptions
}

// validate checks a v1 body: every malformed or unknown input is
// rejected here, so the handler maps validation failures to 400
// uniformly.
func (r v1ModelReq) validate() (modelParams, error) {
	p := modelParams{kind: r.Kind, response: r.Params.Response, lambda: 1e-3, k: 2}
	if p.kind == "" {
		p.kind = "linreg"
	}
	known := false
	for _, k := range allKinds {
		known = known || k == p.kind
	}
	if !known {
		return p, fmt.Errorf("unknown model kind %q (want one of %s)", p.kind, strings.Join(allKinds, ", "))
	}
	if p.response == "" {
		p.response = "units"
	}
	switch p.kind {
	case "linreg", "polyreg", "ctree", "svm":
		ok := false
		for _, f := range contFeatures {
			ok = ok || f == p.response
		}
		if !ok {
			return p, fmt.Errorf("unknown response attribute %q (maintained features: %v)", p.response, contFeatures)
		}
	}
	if r.Params.Lambda != nil {
		if *r.Params.Lambda < 0 {
			return p, fmt.Errorf("bad lambda %v: want a non-negative number", *r.Params.Lambda)
		}
		p.lambda = *r.Params.Lambda
	}
	if r.Params.K != 0 {
		if r.Params.K < 1 {
			return p, fmt.Errorf("bad k %d: want an integer >= 1", r.Params.K)
		}
		p.k = r.Params.K
	}
	if r.Params.MaxIters != 0 {
		if r.Params.MaxIters < 1 {
			return p, fmt.Errorf("bad max_iters %d: want an integer >= 1", r.Params.MaxIters)
		}
		p.gd.MaxIters = r.Params.MaxIters
	}
	if r.Params.Tol != 0 {
		if r.Params.Tol <= 0 {
			return p, fmt.Errorf("bad tol %v: want a positive number", r.Params.Tol)
		}
		p.gd.Tol = r.Params.Tol
	}
	if r.Params.MaxDepth != 0 {
		if r.Params.MaxDepth < 1 {
			return p, fmt.Errorf("bad max_depth %d: want an integer >= 1", r.Params.MaxDepth)
		}
		p.tree.MaxDepth = r.Params.MaxDepth
	}
	if r.Params.MinRows != 0 {
		if r.Params.MinRows < 0 {
			return p, fmt.Errorf("bad min_rows %v: want a non-negative number", r.Params.MinRows)
		}
		p.tree.MinRows = r.Params.MinRows
	}
	if r.Predict != nil {
		switch p.kind {
		case "kmeans", "chowliu", "ctree":
			return p, fmt.Errorf("kind %q has no prediction; use linreg, polyreg, pca, or svm", p.kind)
		}
		if len(r.Predict.Values) == 0 {
			return p, fmt.Errorf(`"predict" needs a "values" object of continuous feature values`)
		}
		for f := range r.Predict.Values {
			known := false
			for _, g := range contFeatures {
				known = known || f == g
			}
			if !known {
				return p, fmt.Errorf("unknown feature %q (maintained features: %v)", f, contFeatures)
			}
		}
	}
	return p, nil
}

// trainModel trains one model-zoo kind on a frozen snapshot, optionally
// evaluates it, and renders its JSON body (without the shared
// epoch/count/kind envelope).
func trainModel(snap *borg.ServerSnapshot, p modelParams, pr *v1Predict) (map[string]any, error) {
	switch p.kind {
	case "linreg":
		model, err := snap.TrainLinRegGD(p.response, p.lambda, p.gd)
		if err != nil {
			return nil, err
		}
		coefs := make(map[string]float64)
		for _, f := range snap.Features() {
			if f == p.response {
				continue
			}
			c, err := model.Coefficient(f)
			if err != nil {
				return nil, err
			}
			coefs[f] = c
		}
		body := map[string]any{
			"response":     p.response,
			"lambda":       p.lambda,
			"intercept":    model.Intercept(),
			"coefficients": coefs,
			"converged":    model.Converged(),
			"iterations":   model.IterationsRun(),
		}
		if cats := snap.CatFeatures(); len(cats) > 0 {
			body["cat_features"] = cats
		}
		if pr != nil {
			pred, err := predictReg(model.Predict, model.PredictCat, snap, pr)
			if err != nil {
				return nil, err
			}
			body["prediction"] = pred
		}
		return body, nil
	case "polyreg":
		model, err := snap.TrainPolyReg(p.response, p.lambda)
		if err != nil {
			return nil, err
		}
		coefs := make(map[string]float64)
		base := model.Features()
		for _, f := range base {
			c, err := model.Coefficient(f)
			if err != nil {
				return nil, err
			}
			coefs[f] = c
		}
		body := map[string]any{
			"response":     p.response,
			"lambda":       p.lambda,
			"intercept":    model.Intercept(),
			"coefficients": coefs,
		}
		if cats := model.CatFeatures(); len(cats) > 0 {
			// The cofactor form's interactions are continuous×category
			// (varying coefficients), not continuous pairs.
			body["cat_features"] = cats
		} else {
			pairs := make(map[string]float64)
			for i, f := range base {
				for _, g := range base[i:] {
					pc, err := model.PairCoefficient(f, g)
					if err != nil {
						return nil, err
					}
					pairs[f+"*"+g] = pc
				}
			}
			body["pair_coefficients"] = pairs
		}
		if pr != nil {
			pred, err := predictReg(model.Predict, model.PredictCat, snap, pr)
			if err != nil {
				return nil, err
			}
			body["prediction"] = pred
		}
		return body, nil
	case "pca":
		model, err := snap.TrainPCA(p.k)
		if err != nil {
			return nil, err
		}
		body := map[string]any{
			"features":    model.Features,
			"components":  model.Components,
			"eigenvalues": model.Eigenvalues,
			"means":       model.Means,
		}
		if pr != nil {
			proj, err := model.Project(pr.Values)
			if err != nil {
				return nil, err
			}
			body["projection"] = proj
		}
		return body, nil
	case "kmeans":
		model, err := snap.KMeansSeeds(p.k)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"features":       model.Features,
			"centers":        model.Centers,
			"total_variance": model.TotalVariance,
		}, nil
	case "chowliu":
		edges, err := snap.TrainChowLiu()
		if err != nil {
			return nil, err
		}
		rendered := make([]map[string]any, len(edges))
		for i, e := range edges {
			rendered[i] = map[string]any{"a": e.A, "b": e.B, "mi": e.MI}
		}
		return map[string]any{
			"cat_features": snap.CatFeatures(),
			"edges":        rendered,
		}, nil
	case "ctree":
		model, err := snap.TrainCTree(p.response, p.tree)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"response":     p.response,
			"cat_features": snap.CatFeatures(),
			"nodes":        model.Nodes(),
			"depth":        model.Depth(),
		}, nil
	case "svm":
		model, err := snap.TrainSVM(p.response, p.lambda)
		if err != nil {
			return nil, err
		}
		coefs := make(map[string]float64)
		for _, f := range model.Features() {
			if f == p.response {
				continue
			}
			c, err := model.Coefficient(f)
			if err != nil {
				return nil, err
			}
			coefs[f] = c
		}
		body := map[string]any{
			"label":        p.response,
			"lambda":       p.lambda,
			"bias":         model.Bias(),
			"coefficients": coefs,
			"cat_features": model.CatFeatures(),
		}
		if pr != nil {
			dv, err := model.DecisionValue(pr.Values, pr.Cats)
			if err != nil {
				return nil, err
			}
			cls, err := model.Classify(pr.Values, pr.Cats)
			if err != nil {
				return nil, err
			}
			body["decision"] = dv
			body["class"] = cls
		}
		return body, nil
	}
	return nil, fmt.Errorf("unknown model kind %q", p.kind)
}

// predictReg evaluates a trained regression on a predict object,
// routing to the categorical path when the snapshot maintains
// categorical features.
func predictReg(cont func(map[string]float64) (float64, error), cat func(map[string]float64, map[string]string) (float64, error), snap *borg.ServerSnapshot, pr *v1Predict) (float64, error) {
	if len(snap.CatFeatures()) > 0 {
		return cat(pr.Values, pr.Cats)
	}
	return cont(pr.Values)
}

// modelStatus maps a training error onto its HTTP status: degenerate
// server STATE — an empty join, a ring payload the server was not
// started with — is 409 (the request was well-formed; the resource
// cannot satisfy it yet), a missing feature value in a predict body is
// 400, anything else is an internal 500.
func modelStatus(err error) int {
	switch {
	case errors.Is(err, borg.ErrEmptySnapshot), errors.Is(err, borg.ErrPayloadNotMaintained):
		return http.StatusConflict
	case errors.Is(err, borg.ErrMissingFeature):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
