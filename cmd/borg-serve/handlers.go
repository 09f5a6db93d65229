package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"borg"
	"borg/internal/obs"
)

// allKinds is every model kind the zoo can serve, in documentation
// order.
var allKinds = []string{"linreg", "polyreg", "pca", "kmeans", "chowliu", "ctree", "svm"}

// reqState is what a request uses beyond its handler's locals, pooled
// so that a request allocates none of it: the body buffer, the reply
// it renders, and the response writer that notes the status for the
// route's metrics.
type reqState struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
	out    reply
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

// handle registers fn under pattern: fn gets the pooled request state as
// its response writer, and the route's request count by status class,
// request body bytes and latency are recorded when the server has a
// registry. Only the three routes that carry load are instrumented (a
// histogram is 15 kB, read by every /stats); the others pass route "".
func (svc *service) handle(mux *http.ServeMux, pattern, route string, fn func(st *reqState, r *http.Request)) {
	var m *routeMetrics
	if reg := svc.srv.Metrics(); reg != nil && route != "" {
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
		st.out.reset()
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
				st.out.open('{').key("queued").i64(int64(res.Rows)).close('}').send(st, http.StatusOK)
				return
			}
			// Array bodies are applied item by item, not atomically:
			// every row is attempted and the response carries per-row
			// errors, so clients retry exactly the failed rows. The
			// status distinguishes total failure (400), partial failure
			// (207), and success (200); a failing single object stays
			// 422.
			failed := 0
			for _, err := range res.Errors {
				if err != nil {
					failed++
				}
			}
			if !res.Array {
				st.out.open('{').key("error").str(res.Errors[0].Error()).key("queued").i64(0).close('}').send(st, http.StatusUnprocessableEntity)
				return
			}
			code := http.StatusMultiStatus
			if failed == res.Rows {
				code = http.StatusBadRequest
			}
			st.out.open('{').key("queued").i64(int64(res.Rows - failed)).key("failed").i64(int64(failed)).key("errors").open('[')
			for i, err := range res.Errors {
				if err != nil {
					st.out.open('{').key("index").i64(int64(i)).key("error").str(err.Error()).close('}')
				}
			}
			st.out.close(']').close('}').send(st, code)
		}
	}
	svc.handle(mux, "POST /insert", "/insert", ingest(false))
	svc.handle(mux, "DELETE /insert", "/insert", ingest(true))
	svc.handle(mux, "GET /stats", "/stats", func(st *reqState, r *http.Request) {
		if err := renderStats(&st.out, srv); err != nil {
			httpError(st, http.StatusInternalServerError, err)
			return
		}
		st.out.send(st, http.StatusOK)
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
	svc.handle(mux, "GET /healthz", "", func(st *reqState, r *http.Request) {
		// Liveness only: the process is up and serving HTTP. Load-based
		// degradation belongs to /readyz — a wedged-but-alive server must
		// not get restarted by its liveness probe for being busy.
		st.out.open('{').key("status").str("ok").close('}').send(st, http.StatusOK)
	})
	svc.handle(mux, "GET /readyz", "", func(st *reqState, r *http.Request) {
		rep := st.out.open('{')
		if svc.draining.Load() {
			rep.key("status").str("draining").close('}').send(st, http.StatusServiceUnavailable)
			return
		}
		if err := srv.Err(); err != nil {
			// The writer's failure is sticky: what this server reports
			// from here on is not what its clients sent.
			rep.key("status").str("failed").key("error").str(err.Error()).key("queued").i64(int64(svc.queueLen()))
			rep.close('}').send(st, http.StatusServiceUnavailable)
			return
		}
		code, status, q := http.StatusOK, "ready", svc.queueLen()
		if q > svc.highWater {
			code, status = http.StatusServiceUnavailable, "overloaded"
		}
		rep.key("status").str(status).key("queued").i64(int64(q)).key("high_water").i64(int64(svc.highWater)).close('}').send(st, code)
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
func serveModel(w *reqState, srv *borg.ShardedServer, req v1ModelReq) {
	p, err := req.validate()
	if err != nil {
		// Malformed client input — unknown kind, unknown response
		// attribute, out-of-range numbers — is 400, not 500: nothing
		// broke on the server.
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := renderModel(&w.out, srv.CovarSnapshot(), p, req.Predict); err != nil {
		httpError(w, modelStatus(err), err)
		return
	}
	w.out.send(w, http.StatusOK)
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
