package ml

import (
	"fmt"
	"math"

	"borg/internal/xrand"
)

// PCA extracts the top-k principal components of the feature covariance
// directly from the moment matrix (Section 2.1 notes the same aggregates
// feed PCA): the centered covariance is C = XtX − μμᵀ over the
// non-intercept positions, and power iteration with deflation finds its
// leading eigenpairs. No data access happens after the aggregate batch.
func PCA(s *Sigma, k, iters int, seed uint64) (components [][]float64, eigenvalues []float64, err error) {
	n := s.Size() - 1 // drop the intercept position
	if n <= 0 {
		return nil, nil, fmt.Errorf("ml: PCA needs at least one feature")
	}
	if k <= 0 || k > n {
		k = n
	}
	if iters <= 0 {
		iters = 200
	}
	// Centered covariance: C[i][j] = E[x_i x_j] − E[x_i]E[x_j]; the
	// intercept row of the normalized XtX holds the means.
	c := square(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c[i][j] = s.XtX[i+1][j+1] - s.XtX[0][i+1]*s.XtX[0][j+1]
		}
	}
	src := xrand.New(seed)
	v := make([]float64, n)
	av := make([]float64, n)
	for comp := 0; comp < k; comp++ {
		for i := range v {
			v[i] = src.NormFloat64()
		}
		normalize(v)
		lambda := 0.0
		for it := 0; it < iters; it++ {
			matVec(c, v, av)
			lambda = norm(av)
			if lambda == 0 {
				break
			}
			for i := range v {
				v[i] = av[i] / lambda
			}
		}
		comps := append([]float64(nil), v...)
		components = append(components, comps)
		eigenvalues = append(eigenvalues, lambda)
		// Deflate: C ← C − λ vvᵀ.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c[i][j] -= lambda * comps[i] * comps[j]
			}
		}
	}
	return components, eigenvalues, nil
}

func matVec(m [][]float64, v, out []float64) {
	for i := range m {
		s := 0.0
		row := m[i]
		for j := range row {
			s += row[j] * v[j]
		}
		out[i] = s
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		v[0] = 1
		return
	}
	for i := range v {
		v[i] /= n
	}
}
