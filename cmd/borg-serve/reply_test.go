package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"borg"
	"borg/internal/obs"
)

// The retired replies — maps of any, encoded by encoding/json — kept as
// the oracle the typed replies are compared against.

// writeJSON is the retired reply writer, rendering before it writes the
// status line.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code, b = http.StatusInternalServerError, []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

func retiredStats(srv *borg.ShardedServer) (map[string]any, error) {
	snap := srv.CovarSnapshot()
	means := make(map[string]float64, len(contFeatures))
	for _, f := range contFeatures {
		m, err := snap.Mean(f)
		if errors.Is(err, borg.ErrEmptySnapshot) {
			m = 0
		} else if err != nil {
			return nil, err
		}
		means[f] = m
	}
	st := srv.Stats()
	shardRows := make([]map[string]any, len(st.Shards))
	for i, row := range st.Shards {
		shardRows[i] = map[string]any{
			"shard": i, "epoch": row.Epoch, "inserts": row.Inserts, "deletes": row.Deletes, "queued": row.Queued,
			"count": row.Count, "root": row.Root, "drift": row.Drift, "replans": row.Replans,
		}
	}
	var lastErr any
	if err := srv.Err(); err != nil {
		lastErr = err.Error()
	}
	var metrics any
	if reg := srv.Metrics(); reg != nil {
		metrics = reg.Snapshot()
	}
	return map[string]any{
		"epoch": snap.Epoch(), "inserts": snap.Inserts(), "deletes": snap.Deletes(), "queued": st.Queued,
		"count": snap.Count(), "means": means, "shards": shardRows,
		"plan": map[string]any{
			"root": st.Root, "depth": st.PlanDepth, "width": st.PlanWidth, "drift": st.Drift, "replans": st.Replans,
		},
		"metrics": metrics, "last_error": lastErr,
	}, nil
}

func retiredServeModel(w http.ResponseWriter, srv *borg.ShardedServer, req v1ModelReq) {
	p, err := req.validate()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	snap := srv.CovarSnapshot()
	body, err := retiredTrainModel(snap, p, req.Predict)
	if err != nil {
		httpError(w, modelStatus(err), err)
		return
	}
	body["epoch"] = snap.Epoch()
	body["count"] = snap.Count()
	body["kind"] = p.kind
	writeJSON(w, http.StatusOK, body)
}

func retiredTrainModel(snap *borg.ServerSnapshot, p modelParams, pr *v1Predict) (map[string]any, error) {
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
			"response": p.response, "lambda": p.lambda, "intercept": model.Intercept(),
			"coefficients": coefs, "converged": model.Converged(), "iterations": model.IterationsRun(),
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
		body := map[string]any{"response": p.response, "lambda": p.lambda, "intercept": model.Intercept(), "coefficients": coefs}
		if cats := model.CatFeatures(); len(cats) > 0 {
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
		body := map[string]any{"features": model.Features, "components": model.Components, "eigenvalues": model.Eigenvalues, "means": model.Means}
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
		return map[string]any{"features": model.Features, "centers": model.Centers, "total_variance": model.TotalVariance}, nil
	case "chowliu":
		edges, err := snap.TrainChowLiu()
		if err != nil {
			return nil, err
		}
		rendered := make([]map[string]any, len(edges))
		for i, e := range edges {
			rendered[i] = map[string]any{"a": e.A, "b": e.B, "mi": e.MI}
		}
		return map[string]any{"cat_features": snap.CatFeatures(), "edges": rendered}, nil
	case "ctree":
		model, err := snap.TrainCTree(p.response, p.tree)
		if err != nil {
			return nil, err
		}
		return map[string]any{"response": p.response, "cat_features": snap.CatFeatures(), "nodes": model.Nodes(), "depth": model.Depth()}, nil
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
			"label": p.response, "lambda": p.lambda, "bias": model.Bias(), "coefficients": coefs, "cat_features": model.CatFeatures(),
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

func predictReg(cont func(map[string]float64) (float64, error), cat func(map[string]float64, map[string]string) (float64, error), snap *borg.ServerSnapshot, pr *v1Predict) (float64, error) {
	if len(snap.CatFeatures()) > 0 {
		return cat(pr.Values, pr.Cats)
	}
	return cont(pr.Values)
}

// newPayloadService starts a one-shard server with payload pl, wired as
// main wires it, and streams in rows over three items and stores.
func newPayloadService(t testing.TB, pl borg.Payload, rows int) (*service, http.Handler) {
	t.Helper()
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	features := contFeatures
	if pl == borg.PayloadCofactor {
		features = append(append([]string(nil), contFeatures...), catFeatures...)
	}
	srv, err := q.ServeSharded(features, borg.ShardOptions{ServerOptions: borg.ServerOptions{Payload: pl, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	items, stores := []string{"patty", "bun", "onion"}, []string{"s1", "s2", "s3"}
	for i, s := range stores {
		must(t, srv.Insert("Stores", s, float64(80+40*i)))
		for j, it := range items {
			must(t, srv.Insert("Items", it, s, float64(2+3*j+i)))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		must(t, srv.Insert("Sales", items[rng.Intn(3)], stores[rng.Intn(3)], float64(1+rng.Intn(9))))
	}
	must(t, srv.Flush())
	svc := &service{srv: srv, queueLen: srv.QueueLen, highWater: 1024}
	return svc, newHandler(svc)
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func decodeAny(t *testing.T, body string) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("reply %q: %v", body, err)
	}
	return v
}

// TestReplyEquivalence holds every typed reply to the retired map-built
// one: every model kind under every payload, with and without predict
// (409 and 400 included), and /stats, decode to the same JSON value.
func TestReplyEquivalence(t *testing.T) {
	for _, pl := range []borg.Payload{borg.PayloadCovar, borg.PayloadPoly2, borg.PayloadCofactor} {
		svc, h := newPayloadService(t, pl, 40)
		codes := make(map[int]int)
		for _, kind := range allKinds {
			for _, predict := range []string{"", `{"values": {"price": 6, "area": 120}, "cats": {"item": "patty", "store": "s1"}}`,
				`{"values": {"units": 4, "price": 6, "area": 120}}`} {
				body := `{"kind": "` + kind + `", "params": {"response": "units", "k": 2, "max_depth": 3}`
				if predict != "" {
					body += `, "predict": ` + predict
				}
				body += "}"
				code, got, _ := doHeader(h, "POST", "/v1/model", body)
				var req v1ModelReq
				must(t, json.Unmarshal([]byte(body), &req))
				rec := httptest.NewRecorder()
				retiredServeModel(rec, svc.srv, req)
				if code != rec.Code || !reflect.DeepEqual(decodeAny(t, got), decodeAny(t, rec.Body.String())) {
					t.Fatalf("payload %v, %s:\ntyped:   %d %s\nretired: %d %s", pl, body, code, got, rec.Code, rec.Body.String())
				}
				codes[code]++
			}
		}
		t.Logf("payload %v: model statuses %v", pl, codes)
		var r reply
		must(t, renderStats(&r, svc.srv))
		old, err := retiredStats(svc.srv)
		must(t, err)
		oldJSON, err := json.Marshal(old)
		must(t, err)
		typed, retired := decodeAny(t, string(r.b)), decodeAny(t, string(oldJSON))
		for _, stats := range []any{typed, retired} {
			for _, p := range stats.(map[string]any)["metrics"].([]any) {
				if p := p.(map[string]any); p["name"] == "borg_serve_epoch_age_seconds" {
					delete(p, "value") // a reading of the clock
				}
			}
		}
		if !reflect.DeepEqual(typed, retired) {
			t.Fatalf("payload %v /stats:\ntyped:   %s\nretired: %s", pl, r.b, oldJSON)
		}
	}
}

// TestReplyTextMatchesEncodingJSON holds the append writer's floats,
// strings and metric points to encoding/json's bytes.
func TestReplyTextMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1e-9, 1.5e-10, 1e20, 1e21, -1e21, 1.2345e300,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125, 1e-100, 3e-5}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			floats = append(floats, math.Float64frombits(rng.Uint64()))
		case 1:
			floats = append(floats, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		default:
			floats = append(floats, float64(rng.Int63n(1<<53))/float64(int64(1)<<rng.Intn(60)))
		}
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		var r reply
		r.f64(f)
		want, _ := json.Marshal(f)
		if string(r.b) != string(want) {
			t.Fatalf("%v (%#x): reply %s, encoding/json %s", f, math.Float64bits(f), r.b, want)
		}
	}
	strs := []string{"", "plain", `q"uote\`, "<a&b>", "tab\tnl\nret\rbs\bff\f", "\x00\x1f\x7f", "bad\xff\xfeutf8", "\xef\xbf\xbd",
		"\u2028\u2029", "sm😀ile", "lone\xed\xa0\x80", "trunc\xf0\x9f\x98"}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		var r reply
		r.str(s)
		want, _ := json.Marshal(s)
		if string(r.b) != string(want) {
			t.Fatalf("%q: reply %s, encoding/json %s", s, r.b, want)
		}
	}
	reg := obs.NewRegistry()
	reg.Counter("c_total", "", obs.Labels{"route": `/a"b`}).Add(3)
	reg.Gauge("g", "", nil).Set(-2.5e-9)
	reg.Gauge("zero", "", nil)
	h := reg.Histogram("h_ns", "", obs.Labels{"kind": "x"})
	for v := int64(1); v < 1e7; v *= 3 {
		h.Observe(v)
	}
	reg.Histogram("empty_ns", "", nil)
	pts := reg.Snapshot()
	var r reply
	r.open('[')
	for _, p := range pts {
		r.point(p)
	}
	r.close(']')
	if want, _ := json.Marshal(pts); string(r.b) != string(want) {
		t.Fatalf("metric points:\nreply:         %s\nencoding/json: %s", r.b, want)
	}
}

// TestReplyNaNIs500: a reply that cannot be rendered — a NaN or an
// infinite coefficient — is a 500 naming the value, never a 200.
func TestReplyNaNIs500(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		var r reply
		r.open('{').key("intercept").f64(1)
		must(t, r.coefficients([]string{"units", "price", "area"}, "units", func(f string) (float64, error) {
			if f == "price" {
				return bad, nil
			}
			return 2, nil
		}))
		r.close('}').send(rec, http.StatusOK)
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "unsupported value") {
			t.Fatalf("coefficient %v: %d %q (%v), want 500 naming the value", bad, rec.Code, rec.Body.String(), err)
		}
	}
}

// nopWriter is a ResponseWriter that keeps nothing, so that an
// allocation count sees the handler alone.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestReadReplyAllocs pins what a read costs the server beyond
// net/http: GET /stats renders without boxing or copying a histogram
// (89 allocations when it was built as maps), and a covar model reply
// allocates only what decoding the request and training the model do.
func TestReadReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled request state")
	}
	_, h := newPayloadService(t, borg.PayloadCovar, 40)
	w := &nopWriter{h: http.Header{}}
	body := strings.NewReader("")
	req := httptest.NewRequest("GET", "/stats", body)
	n := testing.AllocsPerRun(50, func() { h.ServeHTTP(w, req) })
	if n > 5 {
		t.Errorf("GET /stats: %v allocs, want <= 5", n)
	}
	t.Logf("GET /stats: %v allocs", n)
	for _, c := range []struct {
		kind string
		max  float64
	}{{"linreg", 20}, {"pca", 30}, {"kmeans", 30}} { // 66, 63 and 60 from map-built replies
		text := `{"kind":"` + c.kind + `","params":{"response":"units","k":2}}`
		req := httptest.NewRequest("POST", "/v1/model", body)
		req.ContentLength = int64(len(text))
		n := testing.AllocsPerRun(50, func() {
			body.Reset(text)
			h.ServeHTTP(w, req)
		})
		if n > c.max {
			t.Errorf("POST /v1/model %s: %v allocs, want <= %v", c.kind, n, c.max)
		}
		t.Logf("POST /v1/model %s: %v allocs", c.kind, n)
	}
}
