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

	"borg/internal/query"
	"borg/internal/relation"
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

	catCodes  [][]int32       // observed codes per categorical feature
	catSlot   []map[int32]int // code → dense position
	totalSize int
}

// Size returns the parameter dimension (intercept included).
func (d *Design) Size() int { return d.totalSize }

// ContPos returns the dense position of the i-th continuous feature.
func (d *Design) ContPos(i int) int { return 1 + i }

// CatPos returns the dense position of code for the k-th categorical
// feature, and whether the code was observed during assembly.
func (d *Design) CatPos(k int, code int32) (int, bool) {
	p, ok := d.catSlot[k][code]
	return p, ok
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
	d.catCodes = make([][]int32, len(cat))
	d.catSlot = make([]map[int32]int, len(cat))
	pos := 1 + len(cont)
	for k, g := range cat {
		r, err := get("c_" + g)
		if err != nil {
			return nil, err
		}
		d.catSlot[k] = make(map[int32]int, len(r.Groups))
		for key := range r.Groups {
			d.catCodes[k] = append(d.catCodes[k], key[0])
		}
		// Deterministic layout: sort codes.
		codes := d.catCodes[k]
		for i := 1; i < len(codes); i++ {
			for j := i; j > 0 && codes[j] < codes[j-1]; j-- {
				codes[j], codes[j-1] = codes[j-1], codes[j]
			}
		}
		for _, c := range codes {
			d.catSlot[k][c] = pos
			pos++
		}
	}
	d.totalSize = pos

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
	s := &Sigma{Design: d, Count: cnt.Scalar, XtY: make([]float64, n)}
	s.XtX = make([][]float64, n)
	for i := range s.XtX {
		s.XtX[i] = make([]float64, n)
	}
	inv := 1 / s.Count
	set := func(i, j int, v float64) {
		s.XtX[i][j] = v * inv
		s.XtX[j][i] = v * inv
	}

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
	for i := range out {
		out[i] = 0
	}
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
