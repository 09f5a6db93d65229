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
//
// The product Σ·θ skips the one-hot zeros: two codes of one categorical
// feature never occur in the same tuple, so a row of a one-hot block is
// zero in every other column of that block. Such a row adds the columns
// before its block, its diagonal, then the columns after, in ascending
// order; the terms it leaves out are ±0, so on finite parameters the sum
// is bitwise the dense one. The intercept and continuous rows add the
// whole row, two rows per sweep: each keeps its own running sum in
// column order, and the pair reads θ once. A product of short rows is
// bound by how fast the core takes in the loop's instructions: one row
// per sweep took 20–40% longer on the Retailer design or not, depending
// on where the linker put the loop.
func TrainLinRegGD(s *Sigma, lambda float64, maxIters int, tol float64) *LinReg {
	n := s.Size()
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = 1 / math.Sqrt(ridgeScale(s.XtX[i][i]))
	}
	dense, block := s.oneHotBlocks()
	theta := make([]float64, n) // standardized parameters
	raw := make([]float64, n)   // d·theta, the raw-space parameters
	grad := make([]float64, n)
	res := make([]float64, n)
	safe := 1 / (float64(n) + lambda)
	lr, prev := safe, 0.0 // last step and last squared gradient norm
	iters := 0
	converged := false
	for ; iters < maxIters; iters++ {
		// The residual moments Σ·raw − XtY: the leading rows whole, two at
		// a time, then each one-hot row around its block.
		i := 0
		for ; i+1 < dense; i += 2 {
			r0, r1 := -s.XtY[i], -s.XtY[i+1]
			row1 := s.XtX[i+1][:n]
			for j, v := range s.XtX[i][:n] {
				x := raw[j]
				r0 += v * x
				r1 += row1[j] * x
			}
			res[i], res[i+1] = r0, r1
		}
		for ; i < dense; i++ {
			r := -s.XtY[i]
			for j, v := range s.XtX[i][:n] {
				r += v * raw[j]
			}
			res[i] = r
		}
		for i := dense; i < n; i++ {
			row, lo, hi := s.XtX[i][:n], block[i][0], block[i][1]
			head, tail := raw[:lo], raw[hi:]
			r := -s.XtY[i]
			for j, v := range row[:len(head)] {
				r += v * head[j]
			}
			r += row[i] * raw[i]
			for j, v := range row[hi:] {
				r += v * tail[j]
			}
			res[i] = r
		}
		// With s = -lr·g₀ and y = g-g₀: sᵀs/sᵀy = lr·|g₀|²/g₀ᵀ(g₀-g).
		norm, sy := 0.0, 0.0
		for i, r := range res {
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
	first := make([]int, len(order))
	for i, p := range order {
		src := s.XtX[p]
		for first[i] < i && src[order[first[i]]] == 0 {
			first[i]++
		}
	}
	a, b := envelope(first)
	for i, p := range order {
		src, row := s.XtX[p], a[i]
		for j := range row {
			row[j] = src[order[first[i]+j]]
		}
		row[len(row)-1] += lambda * ridgeScale(src[p])
		b[i] = s.XtY[p]
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

// oneHotBlocks returns how many leading parameters — the intercept and
// the continuous features — sit in no one-hot block, and per parameter
// the block [lo, hi) its row sits in (zero for those leading ones).
func (d *Design) oneHotBlocks() (dense int, block [][2]int) {
	dense, block = d.totalSize, make([][2]int, d.totalSize)
	for k, codes := range d.catCodes {
		lo, hi := d.catBase[k], d.catBase[k]+len(codes)
		dense = min(dense, lo)
		for i := lo; i < hi; i++ {
			block[i] = [2]int{lo, hi}
		}
	}
	return dense, block
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

// envelope allocates a zeroed system in choleskySolve's form: a in
// envelope form, row i holding columns first[i]..i, and the right-hand
// side b, every row and b carved from one array.
func envelope(first []int) (a [][]float64, b []float64) {
	size := len(first)
	for i, f := range first {
		size += i + 1 - f
	}
	buf := make([]float64, size)
	a, b, buf = make([][]float64, len(first)), buf[:len(first):len(first)], buf[len(first):]
	for i, f := range first {
		w := i + 1 - f
		a[i], buf = buf[:w:w], buf[w:]
	}
	return a, b
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
// feature first, grouped per code. Two consecutive rows that both start
// at column 0 are computed together (factorPair).
func choleskySolve(a [][]float64, b []float64) ([]float64, error) {
	first := make([]int, len(a))
	for i, ri := range a {
		first[i] = max(0, i+1-len(ri))
	}
	inv := make([]float64, len(a)) // 1/L[i][i], once row i is factored
	for i := 0; i < len(a); i++ {
		if first[i] == 0 && i+1 < len(a) && first[i+1] == 0 {
			if err := factorPair(a, first, inv, i); err != nil {
				return nil, err
			}
			i++
			continue
		}
		// Row i of L: a = L Lᵀ, column by column.
		ri, fi := a[i], first[i]
		for j := fi; j <= i; j++ {
			rj, fj := a[j], first[j]
			lo := max(fi, fj)
			v := ri[j-fi] - dot(ri[lo-fi:j-fi], rj[lo-fj:j-fj])
			if j < i {
				ri[j-fi] = v / rj[j-fj]
			} else if v > 0 {
				ri[j-fi] = math.Sqrt(v)
				inv[i] = 1 / ri[j-fi]
			} else {
				return nil, notPositiveDefinite(j)
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

func notPositiveDefinite(pivot int) error {
	return fmt.Errorf("ml: moment matrix not positive definite at pivot %d (add ridge)", pivot)
}

// factorPair computes rows i and i+1 of L, both stored from column 0,
// in one sweep over the rows before them: each row j is read once for
// both. Two columns j, j+1 whose rows also start at column 0 take the
// 2×2 kernel dot2x2; any other column is summed inline — in the
// cofactor systems, a row of a lead block, a few entries long, or the
// odd column out — and multiplied by row j's reciprocal pivot inv[j],
// which every border pair shares. It records inv[i] and inv[i+1].
func factorPair(a [][]float64, first []int, inv []float64, i int) error {
	x, y := a[i][:i+1], a[i+1][:i+2]
	for j := 0; j < i; {
		rj, fj := a[j], first[j]
		if fj == 0 && j+1 < i && first[j+1] == 0 {
			rk := a[j+1][:j+2]
			s00, s01, s10, s11 := dot2x2(x[:j], y[:j], rj[:j], rk[:j])
			x[j] = (x[j] - s00) / rj[j]
			y[j] = (y[j] - s10) / rj[j]
			x[j+1] = (x[j+1] - s01 - x[j]*rk[j]) / rk[j+1]
			y[j+1] = (y[j+1] - s11 - y[j]*rk[j]) / rk[j+1]
			j += 2
			continue
		}
		rj = rj[:j+1-fj]
		u, v := x[j], y[j]
		xs, ys := x[fj:j], y[fj:j]
		for k, l := range rj[:len(xs)] {
			u -= xs[k] * l
			v -= ys[k] * l
		}
		x[j], y[j] = u*inv[j], v*inv[j]
		j++
	}
	// The diagonal block: L[i][i], L[i+1][i] and L[i+1][i+1].
	var sxx, syx, syy float64
	ys := y[:i]
	for k, u := range x[:i] {
		v := ys[k]
		sxx += u * u
		syx += v * u
		syy += v * v
	}
	d := x[i] - sxx
	if !(d > 0) {
		return notPositiveDefinite(i)
	}
	x[i] = math.Sqrt(d)
	y[i] = (y[i] - syx) / x[i]
	e := y[i+1] - syy - y[i]*y[i]
	if !(e > 0) {
		return notPositiveDefinite(i + 1)
	}
	y[i+1] = math.Sqrt(e)
	inv[i], inv[i+1] = 1/x[i], 1/y[i+1]
	return nil
}

// dot2x2Generic returns the four inner products of x0 and x1 with y0
// and y1 (all as long as x0) in one pass: each operand is loaded once
// per step for two multiply-adds, where two dot calls load it once for
// one. Its summation order is fixed, and dot2x2 — the SSE2 kernel on
// amd64, this function elsewhere or under the purego tag — keeps it bit
// for bit: per output four partial sums, sum l over the steps k ≡ l
// (mod 4) below n&^3, reduced as (p0+p2)+(p1+p3), then the last n mod 4
// steps added in order. The conversions keep a compiler from fusing a
// multiply-add, which would round once where the kernel rounds twice.
func dot2x2Generic(x0, x1, y0, y1 []float64) (s00, s01, s10, s11 float64) {
	n := len(x0)
	x1, y0, y1 = x1[:n], y0[:n], y1[:n]
	var p00, p01, p10, p11 [4]float64
	k := 0
	for ; k+4 <= n; k += 4 {
		for l := range 4 {
			u, v, p, q := x0[k+l], x1[k+l], y0[k+l], y1[k+l]
			p00[l] += float64(u * p)
			p01[l] += float64(u * q)
			p10[l] += float64(v * p)
			p11[l] += float64(v * q)
		}
	}
	s00 = (p00[0] + p00[2]) + (p00[1] + p00[3])
	s01 = (p01[0] + p01[2]) + (p01[1] + p01[3])
	s10 = (p10[0] + p10[2]) + (p10[1] + p10[3])
	s11 = (p11[0] + p11[2]) + (p11[1] + p11[3])
	for ; k < n; k++ {
		u, v, p, q := x0[k], x1[k], y0[k], y1[k]
		s00 += float64(u * p)
		s01 += float64(u * q)
		s10 += float64(v * p)
		s11 += float64(v * q)
	}
	return s00, s01, s10, s11
}

// dot returns Σ x[k]·y[k] (y at least as long as x) in four interleaved
// partial sums, so that consecutive multiply-adds do not wait on each
// other. choleskySolve uses it for a row it factors alone and for the
// forward solve; the row pairs of the 904-unknown tenant solve take
// dot2x2 instead (see README, "Envelope Cholesky", for its timings).
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
