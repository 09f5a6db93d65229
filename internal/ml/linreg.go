package ml

import (
	"fmt"
	"math"

	"borg/internal/relation"
)

// LinReg is a ridge linear regression model over a Design.
type LinReg struct {
	Design
	Theta  []float64
	Lambda float64
	// Iterations records how many gradient steps training took (0 for
	// the closed form), for experiment reporting.
	Iterations int
	// Converged reports whether gradient descent stopped because the
	// gradient norm fell below tolerance (always true for the closed
	// form). False means training exhausted its iteration budget and the
	// parameters are a truncation, not a minimizer — callers decide
	// whether to retrain with a larger budget or surface the fact.
	Converged bool
}

// TrainLinRegGD minimizes the ridge least-squares objective by batch
// gradient descent over the moment matrix: each step costs O(n²) in the
// number of parameters and touches NO data — this is the 50-millisecond
// "Grad Descent" line of Figure 3. Training stops after maxIters steps or
// when the gradient norm falls below tol.
//
// The descent runs in the STANDARDIZED feature space (the paper's
// Section 2.1 notes the covariance matrix is over standardized features):
// parameter i is scaled by d_i = 1/sqrt(E[x_i²]), which makes the step
// robust to wildly different feature ranges, and the learned parameters
// are mapped back to the raw space.
//
// Step rule: the first step is the safe 1/L (L bounded by the trace n of
// the standardized matrix, plus λ); every later one is AC/DC's
// Barzilai–Borwein step sᵀs/sᵀy — s the last parameter change, y the
// last gradient change: a secant estimate of the curvature, which takes
// one-hot designs tens of iterations where the fixed step takes tens of
// thousands. When sᵀy is not positive (it is on a positive-definite
// system) or the quotient not finite, the step falls back to 1/L.
func TrainLinRegGD(s *Sigma, lambda float64, maxIters int, tol float64) *LinReg {
	n := s.Size()
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = 1 / math.Sqrt(ridgeScale(s.XtX[i][i]))
	}
	theta := make([]float64, n) // standardized parameters
	raw := make([]float64, n)   // d·theta, the raw-space parameters
	grad := make([]float64, n)
	safe := 1 / (float64(n) + lambda)
	lr, prev := safe, 0.0 // last step and last squared gradient norm
	iters := 0
	converged := false
	for ; iters < maxIters; iters++ {
		// With s = -lr·g₀ and y = g-g₀: sᵀs/sᵀy = lr·|g₀|²/g₀ᵀ(g₀-g).
		norm, sy := 0.0, 0.0
		for i := 0; i < n; i++ {
			r := -s.XtY[i]
			for j, v := range s.XtX[i][:n] {
				r += v * raw[j]
			}
			g := d[i]*r + lambda*theta[i]
			sy += grad[i] * (grad[i] - g)
			grad[i] = g
			norm += g * g
		}
		if math.Sqrt(norm) < tol {
			converged = true
			break
		}
		if bb := lr * prev / sy; iters > 0 && sy > 0 && bb <= math.MaxFloat64 {
			lr = bb
		} else {
			lr = safe
		}
		prev = norm
		for i := 0; i < n; i++ {
			theta[i] -= lr * grad[i]
			raw[i] = d[i] * theta[i]
		}
	}
	return &LinReg{Design: s.Design, Theta: raw, Lambda: lambda, Iterations: iters, Converged: converged}
}

// TrainLinRegClosedForm solves the same standardized-ridge system as
// TrainLinRegGD in closed form: (XtX + λ·diag(XtX))θ = XtY by Cholesky
// factorization — the penalty of each parameter scales with its
// feature's second moment, the standard convention when features are
// standardized. λ must be positive when the one-hot blocks make XtX
// singular (they always do together with the intercept). The system is
// eliminated in Design.solveOrder and each row handed to choleskySolve
// from its first non-zero, so the solve skips the one-hot zeros.
func TrainLinRegClosedForm(s *Sigma, lambda float64) (*LinReg, error) {
	order := s.solveOrder()
	a := make([][]float64, len(order))
	b := make([]float64, len(order))
	for i, p := range order {
		src := s.XtX[p]
		first := 0
		for first < i && src[order[first]] == 0 {
			first++
		}
		row := make([]float64, i+1-first)
		for j := range row {
			row[j] = src[order[first+j]]
		}
		row[i-first] += lambda * ridgeScale(src[p])
		a[i], b[i] = row, s.XtY[p]
	}
	x, err := choleskySolve(a, b)
	if err != nil {
		return nil, err
	}
	theta := make([]float64, len(order))
	for i, p := range order {
		theta[p] = x[i]
	}
	return &LinReg{Design: s.Design, Theta: theta, Lambda: lambda, Converged: true}, nil
}

// ridgeScale is the standardized-ridge weight of a parameter whose
// feature has second moment v: the penalty is ½λ·v·θ², and a feature
// that never varies from zero is penalized as if v were 1.
func ridgeScale(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// solveOrder is the elimination order of the closed-form solve: the
// one-hot slots of the categorical feature with the most observed codes
// first, every other parameter after, both in layout order. Two codes of
// one feature never occur in the same tuple, so the leading block of XtX
// is diagonal and all the envelope Cholesky does happens in the border.
func (d *Design) solveOrder() []int {
	order := make([]int, 0, d.totalSize)
	lo, hi := 0, 0 // the lead block of positions
	if wide, codes := widest(d.catCodes); len(codes) > 0 {
		lo, hi = d.catBase[wide], d.catBase[wide]+len(codes)
	}
	for p := lo; p < hi; p++ {
		order = append(order, p)
	}
	for p := 0; p < d.totalSize; p++ {
		if p < lo || p >= hi {
			order = append(order, p)
		}
	}
	return order
}

// widest returns the categorical feature with the most observed codes
// (the first of equals) and those codes.
func widest(catCodes [][]int32) (wide int, codes []int32) {
	for k, c := range catCodes {
		if len(c) > len(codes) {
			wide, codes = k, c
		}
	}
	return wide, codes
}

// choleskySolve solves a x = b for symmetric positive-definite a,
// overwriting its inputs. a is its lower triangle in envelope (skyline)
// form: row i holds columns first..i, first = max(0, i+1-len(a[i])) — a
// row of n entries is dense (what it stores past the diagonal is
// ignored), a shorter one starts at its first structural non-zero.
// Cholesky creates fill only between a row's first non-zero and its
// diagonal, so L has the envelope of a and looping over the envelope
// alone is exact, zeros inside it included; a dense caller pays the
// dense n³/3 flops. The caller picks the elimination order that keeps
// the envelope small — for the cofactor designs: the widest categorical
// feature first, grouped per code.
func choleskySolve(a [][]float64, b []float64) ([]float64, error) {
	first := make([]int, len(a))
	for i, ri := range a {
		fi := max(0, i+1-len(ri))
		first[i] = fi
		// Row i of L: a = L Lᵀ, column by column.
		for j := fi; j <= i; j++ {
			rj, fj := a[j], first[j]
			lo := max(fi, fj)
			v := ri[j-fi] - dot(ri[lo-fi:j-fi], rj[lo-fj:j-fj])
			if j < i {
				ri[j-fi] = v / rj[j-fj]
			} else if v > 0 {
				ri[j-fi] = math.Sqrt(v)
			} else {
				return nil, fmt.Errorf("ml: moment matrix not positive definite at pivot %d (add ridge)", j)
			}
		}
	}
	// Forward solve L y = b.
	for i, ri := range a {
		fi := first[i]
		b[i] = (b[i] - dot(ri[:i-fi], b[fi:i])) / ri[i-fi]
	}
	// Back solve Lᵀ x = y, a column of Lᵀ (a row of L) at a time.
	for i := len(a) - 1; i >= 0; i-- {
		ri, fi := a[i], first[i]
		b[i] /= ri[i-fi]
		for k, l := range ri[:i-fi] {
			b[fi+k] -= l * b[i]
		}
	}
	return b, nil
}

// dot returns Σ x[k]·y[k] (y at least as long as x) in four interleaved
// partial sums, so that consecutive multiply-adds do not wait on each
// other: it takes the 904-unknown tenant solve from 3.7 to 2.3 ms on a
// 2-vCPU Xeon, where a right-looking rank-4 Schur update per diagonal
// block measured 2.7 ms.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		s0 += x[k] * y[k]
		s1 += x[k+1] * y[k+1]
		s2 += x[k+2] * y[k+2]
		s3 += x[k+3] * y[k+3]
	}
	for ; k < len(x); k++ {
		s0 += x[k] * y[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// Predict evaluates the model on one row of a materialized data matrix.
func (m *LinReg) Predict(data *relation.Relation, row int, scratch []float64) (float64, error) {
	if err := m.FeatureVector(data, row, scratch); err != nil {
		return 0, err
	}
	p := 0.0
	for i, v := range scratch {
		p += m.Theta[i] * v
	}
	return p, nil
}

// RMSE computes the root-mean-square error of the model over a
// materialized data matrix (validation only; training is aggregate-based).
func (m *LinReg) RMSE(data *relation.Relation) (float64, error) {
	yc := data.AttrIndex(m.Response)
	if yc < 0 {
		return 0, fmt.Errorf("ml: data matrix missing response %s", m.Response)
	}
	scratch := make([]float64, m.Size())
	sse := 0.0
	n := data.NumRows()
	if n == 0 {
		return 0, fmt.Errorf("ml: empty data matrix")
	}
	for row := 0; row < n; row++ {
		p, err := m.Predict(data, row, scratch)
		if err != nil {
			return 0, err
		}
		e := p - data.Float(yc, row)
		sse += e * e
	}
	return math.Sqrt(sse / float64(n)), nil
}

// MSEFromSigma is the model's mean squared error over the tuples s was
// assembled from, E[(θᵀx − y)²] = YtY − 2θᵀXtY + θᵀXtXθ, read from the
// moments alone: no data access. Cancellation on a near-perfect fit can
// leave a tiny negative, which is clamped to 0.
func (m *LinReg) MSEFromSigma(s *Sigma) float64 {
	mse := s.YtY
	for i, th := range m.Theta {
		mse += th * (dot(s.XtX[i][:len(m.Theta)], m.Theta) - 2*s.XtY[i])
	}
	return max(mse, 0)
}

// ObjectiveFromSigma evaluates the (normalized) objective both trainers
// minimize, ½·MSE + ½λ·Σᵢ Σᵢᵢ·θᵢ² — the ridge penalty is the
// standardized one, weighted by each feature's second moment — at the
// model's parameters, entirely from the moments.
func (m *LinReg) ObjectiveFromSigma(s *Sigma) float64 {
	obj := 0.5 * m.MSEFromSigma(s)
	for i, th := range m.Theta {
		obj += 0.5 * m.Lambda * ridgeScale(s.XtX[i][i]) * th * th
	}
	return obj
}
