package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"borg"
)

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
