package ml

import (
	"fmt"

	"borg/internal/relation"
)

// SubsetSigma projects a moment matrix onto a subset of its features —
// the Section 1.5 model-selection move: once the covariance matrix over
// ALL features is computed, the moments of any feature subset are a
// submatrix, and a new model trains in milliseconds without touching the
// data again. cont and cat select by attribute name; nil cat keeps none.
func SubsetSigma(s *Sigma, cont, cat []string) (*Sigma, error) {
	var keep []int
	keep = append(keep, 0) // intercept
	d := Design{Cont: cont, Cat: cat, Response: s.Response}
	for _, a := range cont {
		found := -1
		for i, b := range s.Cont {
			if a == b {
				found = s.ContPos(i)
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("ml: subset feature %s not in sigma", a)
		}
		keep = append(keep, found)
	}
	codes, rank := make([][]int32, len(cat)), make([][]int32, len(cat))
	for k, g := range cat {
		found := -1
		for i, h := range s.Cat {
			if g == h {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("ml: subset feature %s not in sigma", g)
		}
		codes[k], rank[k] = s.catCodes[found], s.catRank[found]
		for r := range codes[k] {
			keep = append(keep, s.catBase[found]+r)
		}
	}
	d.setCats(codes, rank)

	out := &Sigma{Design: d, Count: s.Count, YtY: s.YtY, XtX: square(len(keep))}
	out.XtY = make([]float64, len(keep))
	for i, pi := range keep {
		out.XtY[i] = s.XtY[pi]
		for j, pj := range keep {
			out.XtX[i][j] = s.XtX[pi][pj]
		}
	}
	return out, nil
}

// OneSGDPass performs exactly one stochastic-gradient epoch over a
// materialized data matrix. It exists to price the agnostic path in the
// model-selection experiment (each candidate model costs at least one
// such pass there).
func OneSGDPass(data *relation.Relation, cont, cat []string, response string) error {
	design, err := NewDesign(data, cont, cat, response)
	if err != nil {
		return err
	}
	n := design.Size()
	theta := make([]float64, n)
	vec := make([]float64, n)
	yc := data.AttrIndex(response)
	if yc < 0 {
		return fmt.Errorf("ml: response %s missing", response)
	}
	const lr = 1e-6
	for row := 0; row < data.NumRows(); row++ {
		if err := design.FeatureVector(data, row, vec); err != nil {
			return err
		}
		pred := 0.0
		for i := range vec {
			pred += theta[i] * vec[i]
		}
		resid := pred - data.Float(yc, row)
		for i := range vec {
			theta[i] -= lr * resid * vec[i]
		}
	}
	return nil
}
