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
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"borg"
	"borg/internal/ivm"
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
