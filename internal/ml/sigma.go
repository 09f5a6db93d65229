// Package ml implements the machine-learning layer of the paper's
// Section 2: models whose data-dependent computation is a batch of
// aggregates over the feature-extraction join. Ridge linear regression,
// CART decision trees, k-means (Rk-means style), Chow–Liu trees, linear
// SVMs (via additive-inequality aggregates), PCA and degree-2 polynomial
// regression all train on sufficient statistics produced by the LMFAO
// engine (internal/core) — never on a materialized data matrix.
package ml

import (
	"fmt"
	"slices"

	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

// Design fixes the dense layout of the model's parameter vector:
// position 0 is the intercept, then the continuous features in order,
// then the one-hot expansion of each categorical feature (one slot per
// category code observed in the data — the sparse-tensor encoding made
// dense only at parameter-vector size, never at data size).
type Design struct {
	Cont     []string
	Cat      []string
	Response string

	catCodes  [][]int32 // observed codes per categorical feature, ascending
	catRank   [][]int32 // per feature: code → rank in catCodes (see rankOf)
	catBase   []int     // dense position of each feature's first code
	totalSize int
}

// Size returns the parameter dimension (intercept included).
func (d *Design) Size() int { return d.totalSize }

// ContPos returns the dense position of the i-th continuous feature.
func (d *Design) ContPos(i int) int { return 1 + i }

// CatPos returns the dense position of code for the k-th categorical
// feature, and whether the code was observed during assembly.
func (d *Design) CatPos(k int, code int32) (int, bool) {
	r := rankOf(d.catRank[k], code)
	return d.catBase[k] + r, r >= 0
}

// setCats lays the one-hot slots out behind the intercept and the
// continuous features: feature k's codes, ascending, from catBase[k] on.
// rank holds their code → rank tables; nil builds them from codes.
func (d *Design) setCats(codes, rank [][]int32) {
	if rank == nil {
		rank = make([][]int32, len(codes))
		for k, c := range codes {
			rank[k] = rankTable(c)
		}
	}
	d.catCodes, d.catRank, d.catBase = codes, rank, make([]int, len(codes))
	pos := 1 + len(d.Cont)
	for k, c := range codes {
		d.catBase[k] = pos
		pos += len(c)
	}
	d.totalSize = pos
}

// rankTable is the dense code → rank table of ascending, non-negative
// codes: entry c is the index of c in codes, -1 for a code not in it.
func rankTable(codes []int32) []int32 {
	var t []int32
	if len(codes) > 0 {
		t = make([]int32, codes[len(codes)-1]+1)
	}
	for c := range t {
		t[c] = -1
	}
	for r, c := range codes {
		t[c] = int32(r)
	}
	return t
}

// rankOf looks a code up in a rank table: -1 for a code the table does
// not hold (never observed, out of its range, or negative).
func rankOf(t []int32, code int32) int {
	if uint32(code) >= uint32(len(t)) {
		return -1
	}
	return int(t[code])
}

// set writes the symmetric entry (p, q) of the moment matrix.
func (s *Sigma) set(p, q int, v float64) { s.XtX[p][q], s.XtX[q][p] = v, v }

// square allocates an n×n matrix over one backing array.
func square(n int) [][]float64 {
	buf, m := make([]float64, n*n), make([][]float64, n)
	for i := range m {
		m[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// newSigma allocates the moment matrix of design d and fills its
// continuous block from a full-support triple, normalized by the count:
// idx holds the triple's index of each continuous feature, ry the
// response's. The one-hot block is left to the caller.
func newSigma(d Design, idx []int, ry int, c *ring.Covar) *Sigma {
	n := d.Size()
	s := &Sigma{Design: d, Count: c.Count, XtX: square(n), XtY: make([]float64, n)}
	inv := 1 / c.Count
	mom := func(i, j int) float64 { return c.Q[i*c.N+j] * inv }
	s.XtX[0][0] = 1
	for i, gi := range idx {
		p := d.ContPos(i)
		s.set(0, p, c.Sum[gi]*inv)
		for j := i; j < len(idx); j++ {
			s.set(p, d.ContPos(j), mom(gi, idx[j]))
		}
		s.XtY[p] = mom(gi, ry)
	}
	s.XtY[0] = c.Sum[ry] * inv
	s.YtY = mom(ry, ry)
	return s
}

// splitResponse splits the response off the maintained continuous
// features: the continuous design of the others, each one's index in
// features, and the response's.
func splitResponse(features []string, response string) (d Design, idx []int, ry int, err error) {
	ry = -1
	d.Cont, idx = make([]string, 0, len(features)), make([]int, 0, len(features))
	for i, f := range features {
		if f == response {
			ry = i
			continue
		}
		d.Cont = append(d.Cont, f)
		idx = append(idx, i)
	}
	if ry < 0 {
		return d, nil, 0, fmt.Errorf("ml: response %s is not a maintained feature", response)
	}
	d.Response = response
	d.setCats(nil, nil)
	return d, idx, ry, nil
}

// Sigma is the (non-centred) second-moment matrix of the design: the
// result of a covariance aggregate batch, normalized by the tuple count
// so gradient descent is well-conditioned. XtX includes the intercept
// row/column; XtY is the feature–response moment vector; YtY the
// response second moment.
type Sigma struct {
	Design
	Count float64
	XtX   [][]float64
	XtY   []float64
	YtY   float64
}

// AssembleSigma builds the moment matrix from the results of a
// core.CovarianceBatch evaluation. The results must carry the IDs
// produced by that synthesis ("count", "s_<a>", "q_<a>_<b>", "c_<g>",
// "c_<g>_<h>", "m_<a>_<g>"), with the continuous list implicitly
// extended by the response.
func AssembleSigma(cont, cat []string, response string, results []*query.AggResult) (*Sigma, error) {
	byID := make(map[string]*query.AggResult, len(results))
	for _, r := range results {
		byID[r.Spec.ID] = r
	}
	get := func(id string) (*query.AggResult, error) {
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("ml: covariance batch missing aggregate %s", id)
		}
		return r, nil
	}

	cnt, err := get("count")
	if err != nil {
		return nil, err
	}
	if cnt.Scalar <= 0 {
		return nil, fmt.Errorf("ml: empty join (count = %v)", cnt.Scalar)
	}

	d := Design{Cont: cont, Cat: cat, Response: response}
	codes := make([][]int32, len(cat))
	for k, g := range cat {
		r, err := get("c_" + g)
		if err != nil {
			return nil, err
		}
		for key := range r.Groups {
			codes[k] = append(codes[k], key[0])
		}
		slices.Sort(codes[k]) // deterministic layout
	}
	d.setCats(codes, nil)

	// The generation order of q_ IDs follows the continuous list with the
	// response appended.
	contY := append(append([]string(nil), cont...), response)
	order := make(map[string]int, len(contY))
	for i, a := range contY {
		order[a] = i
	}
	qID := func(a, b string) string {
		if order[a] > order[b] {
			a, b = b, a
		}
		return fmt.Sprintf("q_%s_%s", a, b)
	}

	n := d.totalSize
	s := &Sigma{Design: d, Count: cnt.Scalar, XtX: square(n), XtY: make([]float64, n)}
	inv := 1 / s.Count
	set := func(i, j int, v float64) { s.set(i, j, v*inv) }

	// Intercept block.
	s.XtX[0][0] = 1 // count/count
	for i, a := range cont {
		r, err := get("s_" + a)
		if err != nil {
			return nil, err
		}
		set(0, d.ContPos(i), r.Scalar)
	}
	for k, g := range cat {
		r, _ := get("c_" + g) // existence checked above
		for key, v := range r.Groups {
			p, _ := d.CatPos(k, key[0])
			set(0, p, v)
		}
	}

	// Continuous × continuous.
	for i, a := range cont {
		for j := i; j < len(cont); j++ {
			r, err := get(qID(a, cont[j]))
			if err != nil {
				return nil, err
			}
			set(d.ContPos(i), d.ContPos(j), r.Scalar)
		}
		ry, err := get(qID(a, response))
		if err != nil {
			return nil, err
		}
		s.XtY[d.ContPos(i)] = ry.Scalar * inv
	}

	// Continuous × categorical (including response × categorical).
	for k, g := range cat {
		for i, a := range cont {
			r, err := get(fmt.Sprintf("m_%s_%s", a, g))
			if err != nil {
				return nil, err
			}
			for key, v := range r.Groups {
				if p, ok := d.CatPos(k, key[0]); ok {
					set(d.ContPos(i), p, v)
				}
			}
		}
		r, err := get(fmt.Sprintf("m_%s_%s", response, g))
		if err != nil {
			return nil, err
		}
		for key, v := range r.Groups {
			if p, ok := d.CatPos(k, key[0]); ok {
				s.XtY[p] = v * inv
			}
		}
	}

	// Categorical diagonal blocks (one-hot: x·x = x) and cross blocks.
	for k, g := range cat {
		r, _ := get("c_" + g)
		for key, v := range r.Groups {
			p, _ := d.CatPos(k, key[0])
			set(p, p, v)
		}
		for l := k + 1; l < len(cat); l++ {
			h := cat[l]
			r, err := get(fmt.Sprintf("c_%s_%s", g, h))
			if err != nil {
				return nil, err
			}
			for key, v := range r.Groups {
				pg, ok1 := d.CatPos(k, key[0])
				ph, ok2 := d.CatPos(l, key[1])
				if ok1 && ok2 {
					set(pg, ph, v)
				}
			}
		}
	}

	// Response moments: intercept×y and y².
	sy, err := get("s_" + response)
	if err != nil {
		return nil, err
	}
	s.XtY[0] = sy.Scalar * inv
	yy, err := get(qID(response, response))
	if err != nil {
		return nil, err
	}
	s.YtY = yy.Scalar * inv
	return s, nil
}

// FeatureVector materializes the dense design-space feature vector of one
// row of a data matrix (used for prediction and RMSE validation; training
// never calls this).
func (d *Design) FeatureVector(data *relation.Relation, row int, out []float64) error {
	clear(out)
	out[0] = 1
	for i, a := range d.Cont {
		c := data.AttrIndex(a)
		if c < 0 {
			return fmt.Errorf("ml: data matrix missing feature %s", a)
		}
		out[d.ContPos(i)] = data.Float(c, row)
	}
	for k, g := range d.Cat {
		c := data.AttrIndex(g)
		if c < 0 {
			return fmt.Errorf("ml: data matrix missing feature %s", g)
		}
		if p, ok := d.CatPos(k, data.Cat(c, row)); ok {
			out[p] = 1
		}
	}
	return nil
}
