package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"borg"
	"borg/internal/obs"
)

// reply is a JSON text rendered by appending typed values, spelled the
// way encoding/json spells them: floats in its shortest form, strings
// with its escapes, invalid UTF-8 as U+FFFD. A comma goes before a key
// or value unless the text ends in '{', '[' or ':', so a reply is
// written as a plain run of calls. Nothing is boxed and, once the
// pooled buffer has grown, nothing is allocated.
type reply struct {
	b   []byte
	err error // the first value JSON cannot carry: a NaN or an infinity
}

func (r *reply) reset() { r.b, r.err = r.b[:0], nil }

func (r *reply) sep() {
	if n := len(r.b); n > 0 && r.b[n-1] != '{' && r.b[n-1] != '[' && r.b[n-1] != ':' {
		r.b = append(r.b, ',')
	}
}

func (r *reply) open(c byte) *reply { r.sep(); r.b = append(r.b, c); return r }

func (r *reply) close(c byte) *reply { r.b = append(r.b, c); return r }

func (r *reply) str(s string) *reply {
	r.sep()
	r.b = append(appendEscaped(append(r.b, '"'), s), '"')
	return r
}

func (r *reply) key(k string) *reply { r.str(k); r.b = append(r.b, ':'); return r }

func (r *reply) i64(v int64) *reply { r.sep(); r.b = strconv.AppendInt(r.b, v, 10); return r }

func (r *reply) u64(v uint64) *reply { r.sep(); r.b = strconv.AppendUint(r.b, v, 10); return r }

func (r *reply) boolean(v bool) *reply { r.sep(); r.b = strconv.AppendBool(r.b, v); return r }

func (r *reply) null() *reply { r.sep(); r.b = append(r.b, "null"...); return r }

// f64 writes v as encoding/json does: shortest 'f' form, and 'e' form
// below 1e-6 and from 1e21, where a negative exponent loses its leading
// zero (1e-07 is written 1e-7). A NaN or an infinity fails the reply.
func (r *reply) f64(v float64) *reply {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if r.err == nil {
			r.err = fmt.Errorf("json: unsupported value: %v", v)
		}
		return r.null()
	}
	r.sep()
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	r.b = strconv.AppendFloat(r.b, v, format, -1, 64)
	if n := len(r.b); format == 'e' && r.b[n-4] == 'e' && r.b[n-3] == '-' && r.b[n-2] == '0' {
		r.b[n-2] = r.b[n-1]
		r.b = r.b[:n-1]
	}
	return r
}

// list writes vs as an array of each's values, and a nil slice as
// null, as encoding/json does.
func list[T any](r *reply, vs []T, each func(T) *reply) *reply {
	if vs == nil {
		return r.null()
	}
	r.open('[')
	for _, v := range vs {
		each(v)
	}
	return r.close(']')
}

func (r *reply) strs(vs []string) *reply { return list(r, vs, r.str) }

func (r *reply) f64s(vs []float64) *reply { return list(r, vs, r.f64) }

// appendEscaped appends s as the inside of a JSON string, escaped as
// encoding/json escapes it: the short escapes, \u00XX for the other
// control bytes and for <, > and &, \u2028 and \u2029 spelled out, and
// each byte of invalid UTF-8 as \ufffd. Runs of plain ASCII are copied
// whole.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		c, size := utf8.DecodeRuneInString(s[i:])
		if k := strings.IndexRune("\"\\\b\f\n\r\t", c); k >= 0 {
			b = append(b, '\\', `"\bfnrt`[k])
		} else if c == utf8.RuneError && size == 1 {
			b = append(b, `\ufffd`...)
		} else if c < 0x20 || c == '<' || c == '>' || c == '&' || c == '\u2028' || c == '\u2029' {
			b = append(b, '\\', 'u', hex[c>>12&0xF], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		} else {
			b = append(b, s[i:i+size]...)
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// jsonContentType is the Content-Type of every reply, shared so that
// setting it allocates no slice.
var jsonContentType = []string{"application/json"}

// send writes the reply with code, the status line only after the body
// is rendered: a reply that failed to render goes out as a 500 naming
// the value, never as a 200 with a broken body.
func (r *reply) send(w http.ResponseWriter, code int) {
	if err := r.err; err != nil {
		r.reset()
		r.open('{').key("error").str(err.Error()).close('}')
		code = http.StatusInternalServerError
	}
	r.b = append(r.b, '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(r.b) // a client that went away is net/http's to report
}

func httpError(w http.ResponseWriter, code int, err error) {
	new(reply).open('{').key("error").str(err.Error()).close('}').send(w, code)
}

// renderStats renders GET /stats. One merged snapshot feeds every
// aggregate field, so those counters are mutually consistent; "queued"
// and the per-shard rows are inherently live readings taken alongside
// (each shard row is itself consistent — one snapshot load per shard).
func renderStats(r *reply, srv *borg.ShardedServer) error {
	snap := srv.CovarSnapshot()
	st := srv.Stats()
	r.open('{').key("epoch").u64(snap.Epoch()).key("inserts").u64(snap.Inserts()).key("deletes").u64(snap.Deletes()).
		key("queued").i64(int64(st.Queued)).key("count").f64(snap.Count()).key("means").open('{')
	for _, f := range contFeatures {
		m, err := snap.Mean(f)
		if errors.Is(err, borg.ErrEmptySnapshot) {
			// /stats is a health view, not a trainer: an empty join is a
			// normal state here, reported as count 0 with zero means
			// rather than an error status.
			m = 0
		} else if err != nil {
			return err
		}
		r.key(f).f64(m)
	}
	r.close('}').key("shards").open('[')
	for i, row := range st.Shards {
		r.open('{').key("shard").i64(int64(i)).key("epoch").u64(row.Epoch).key("inserts").u64(row.Inserts).
			key("deletes").u64(row.Deletes).key("queued").i64(int64(row.Queued)).key("count").f64(row.Count).
			key("root").str(row.Root).key("drift").f64(row.Drift).key("replans").u64(row.Replans).close('}')
	}
	// The plan block is the operator's first stop before profiling a
	// slow server: which root the maintainers are built under, how
	// deep/wide the variable order is, and how far churn has drifted the
	// live sizes from that choice.
	r.close(']').key("plan").open('{').key("root").str(st.Root).key("depth").i64(int64(st.PlanDepth)).
		key("width").i64(int64(st.PlanWidth)).key("drift").f64(st.Drift).key("replans").u64(st.Replans).close('}')
	// The registry snapshot rides along for humans and scripts that
	// don't speak the Prometheus text format: every series with its
	// value, plus count/sum/p50/p95/p99 for the histograms, each field
	// omitted when zero as encoding/json omits obs.MetricPoint's.
	var metrics []obs.MetricPoint
	if reg := srv.Metrics(); reg != nil {
		metrics = reg.Snapshot()
	}
	list(r.key("metrics"), metrics, r.point).key("last_error")
	if err := srv.Err(); err != nil {
		r.str(err.Error())
	} else {
		r.null()
	}
	r.close('}')
	return nil
}

func (r *reply) point(p obs.MetricPoint) *reply {
	r.open('{').key("name").str(p.Name)
	if p.Labels != "" {
		r.key("labels").str(p.Labels)
	}
	r.key("type").str(p.Type)
	if p.Value != 0 {
		r.key("value").f64(p.Value)
	}
	if p.Count != 0 {
		r.key("count").u64(p.Count)
	}
	for _, q := range [...]struct {
		k string
		v int64
	}{{"sum", p.Sum}, {"p50", p.P50}, {"p95", p.P95}, {"p99", p.P99}} {
		if q.v != 0 {
			r.key(q.k).i64(q.v)
		}
	}
	return r.close('}')
}

// coefficients renders the coefficient of every name but skip as one
// object, in the order of names.
func (r *reply) coefficients(names []string, skip string, coef func(string) (float64, error)) error {
	r.key("coefficients").open('{')
	for _, f := range names {
		if f == skip {
			continue
		}
		c, err := coef(f)
		if err != nil {
			return err
		}
		r.key(f).f64(c)
	}
	r.close('}')
	return nil
}

// renderModel trains one model-zoo kind on a frozen snapshot,
// optionally evaluates it, and renders the POST /v1/model reply: the
// kind, epoch and count, then the model's fields.
func renderModel(r *reply, snap *borg.ServerSnapshot, p modelParams, pr *v1Predict) error {
	r.open('{').key("kind").str(p.kind).key("epoch").u64(snap.Epoch()).key("count").f64(snap.Count())
	switch p.kind {
	case "linreg":
		model, err := snap.TrainLinRegGD(p.response, p.lambda, p.gd)
		if err != nil {
			return err
		}
		r.key("response").str(p.response).key("lambda").f64(p.lambda).key("intercept").f64(model.Intercept())
		if err := r.coefficients(snap.Features(), p.response, model.Coefficient); err != nil {
			return err
		}
		r.key("converged").boolean(model.Converged()).key("iterations").i64(int64(model.IterationsRun()))
		if cats := snap.CatFeatures(); len(cats) > 0 {
			r.key("cat_features").strs(cats)
		}
		if err := r.prediction(model.Predict, model.PredictCat, snap, pr); err != nil {
			return err
		}
	case "polyreg":
		model, err := snap.TrainPolyReg(p.response, p.lambda)
		if err != nil {
			return err
		}
		r.key("response").str(p.response).key("lambda").f64(p.lambda).key("intercept").f64(model.Intercept())
		base := model.Features()
		if err := r.coefficients(base, "", model.Coefficient); err != nil {
			return err
		}
		if cats := model.CatFeatures(); len(cats) > 0 {
			// The cofactor form's interactions are continuous×category
			// (varying coefficients), not continuous pairs.
			r.key("cat_features").strs(cats)
		} else {
			r.key("pair_coefficients").open('{')
			for i, f := range base {
				for _, g := range base[i:] {
					pc, err := model.PairCoefficient(f, g)
					if err != nil {
						return err
					}
					r.key(f + "*" + g).f64(pc)
				}
			}
			r.close('}')
		}
		if err := r.prediction(model.Predict, model.PredictCat, snap, pr); err != nil {
			return err
		}
	case "pca":
		model, err := snap.TrainPCA(p.k)
		if err != nil {
			return err
		}
		r.key("features").strs(model.Features).key("components")
		list(r, model.Components, r.f64s).
			key("eigenvalues").f64s(model.Eigenvalues).key("means").f64s(model.Means)
		if pr != nil {
			proj, err := model.Project(pr.Values)
			if err != nil {
				return err
			}
			r.key("projection").f64s(proj)
		}
	case "kmeans":
		model, err := snap.KMeansSeeds(p.k)
		if err != nil {
			return err
		}
		r.key("features").strs(model.Features).key("centers")
		list(r, model.Centers, r.f64s).key("total_variance").f64(model.TotalVariance)
	case "chowliu":
		edges, err := snap.TrainChowLiu()
		if err != nil {
			return err
		}
		r.key("cat_features").strs(snap.CatFeatures()).key("edges").open('[')
		for _, e := range edges {
			r.open('{').key("a").str(e.A).key("b").str(e.B).key("mi").f64(e.MI).close('}')
		}
		r.close(']')
	case "ctree":
		model, err := snap.TrainCTree(p.response, p.tree)
		if err != nil {
			return err
		}
		r.key("response").str(p.response).key("cat_features").strs(snap.CatFeatures()).
			key("nodes").i64(int64(model.Nodes())).key("depth").i64(int64(model.Depth()))
	case "svm":
		model, err := snap.TrainSVM(p.response, p.lambda)
		if err != nil {
			return err
		}
		r.key("label").str(p.response).key("lambda").f64(p.lambda).key("bias").f64(model.Bias())
		if err := r.coefficients(model.Features(), p.response, model.Coefficient); err != nil {
			return err
		}
		r.key("cat_features").strs(model.CatFeatures())
		if pr != nil {
			dv, err := model.DecisionValue(pr.Values, pr.Cats)
			if err != nil {
				return err
			}
			cls, err := model.Classify(pr.Values, pr.Cats)
			if err != nil {
				return err
			}
			r.key("decision").f64(dv).key("class").f64(cls)
		}
	default:
		return fmt.Errorf("unknown model kind %q", p.kind)
	}
	r.close('}')
	return nil
}

// prediction evaluates a trained regression on a predict object, if
// there is one, routing to the categorical path when the snapshot
// maintains categorical features.
func (r *reply) prediction(cont func(map[string]float64) (float64, error), cat func(map[string]float64, map[string]string) (float64, error), snap *borg.ServerSnapshot, pr *v1Predict) error {
	if pr == nil {
		return nil
	}
	var pred float64
	var err error
	if len(snap.CatFeatures()) > 0 {
		pred, err = cat(pr.Values, pr.Cats)
	} else {
		pred, err = cont(pr.Values)
	}
	r.key("prediction").f64(pred)
	return err
}
