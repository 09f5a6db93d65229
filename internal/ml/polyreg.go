package ml

import (
	"fmt"

	"borg/internal/core"
	"borg/internal/query"
	"borg/internal/ring"
)

// Degree-2 polynomial regression over the join (Section 2.1: "similar
// aggregates can be derived for polynomial regression models"). The model
// is linear in the EXPANDED feature space {1, x_i, x_i·x_j}; its
// least-squares sufficient statistics are therefore moments of the base
// features up to degree 4, all of which are SUM-product aggregates over
// the join — one batch, no data matrix. With n base features the
// expanded design has 1 + n + n(n+1)/2 parameters.

// PolyBatch emits the aggregate batch for degree-2 polynomial regression
// over the continuous features cont with the given response: every
// moment SUM(Π x^p) with total degree ≤ 4 over cont ∪ {response} that the
// expanded normal equations touch.
func PolyBatch(cont []string, response string) []query.AggSpec {
	attrs := append(append([]string(nil), cont...), response)
	specs := []query.AggSpec{{ID: "count"}}
	seen := map[string]bool{"count": true}
	// Enumerate monomials over (attr, power) with total degree ≤ 4 and at
	// most 4 distinct attributes; response appears with power ≤ 2.
	var emit func(start, degreeLeft int, factors []query.Factor)
	emit = func(start, degreeLeft int, factors []query.Factor) {
		if len(factors) > 0 {
			id := polyID(factors)
			if !seen[id] {
				seen[id] = true
				specs = append(specs, query.AggSpec{ID: id, Factors: append([]query.Factor(nil), factors...)})
			}
		}
		if degreeLeft == 0 || start >= len(attrs) {
			return
		}
		for i := start; i < len(attrs); i++ {
			maxP := degreeLeft
			if attrs[i] == response && maxP > 2 {
				maxP = 2
			}
			for p := 1; p <= maxP; p++ {
				emit(i+1, degreeLeft-p, append(factors, query.Factor{Attr: attrs[i], Power: p}))
			}
		}
	}
	emit(0, 4, nil)
	return specs
}

func polyID(factors []query.Factor) string {
	id := "pm"
	for _, f := range factors {
		id += fmt.Sprintf("_%s^%d", f.Attr, f.Power)
	}
	return id
}

// PolyReg is a trained degree-2 polynomial regression model.
type PolyReg struct {
	Cont     []string
	Response string
	// Theta is laid out: [intercept, x_0..x_{n-1}, then pairs (i,j) i<=j
	// in row-major upper-triangle order].
	Theta  []float64
	Lambda float64
}

// expandedDim returns the parameter count for n base features.
func expandedDim(n int) int { return 1 + n + n*(n+1)/2 }

// pairPos returns the parameter index of the x_i·x_j term (i <= j).
func pairPos(n, i, j int) int {
	if i > j {
		i, j = j, i
	}
	return 1 + n + i*n - i*(i-1)/2 + (j - i)
}

// TrainPolyReg assembles the expanded-space normal equations from the
// batch results and solves them (standardized ridge, closed form).
func TrainPolyReg(cont []string, response string, results []*query.AggResult, lambda float64) (*PolyReg, error) {
	byID := make(map[string]*query.AggResult, len(results))
	for _, r := range results {
		byID[r.Spec.ID] = r
	}
	n := len(cont)

	// moment fetches SUM(Π attr^pow) from the batch, merging powers of
	// repeated attributes.
	moment := func(parts ...[2]int) (float64, error) {
		pow := map[int]int{} // attr index in cont∪{y} (n = response) → power
		for _, p := range parts {
			pow[p[0]] += p[1]
		}
		var factors []query.Factor
		for i := 0; i <= n; i++ {
			if pow[i] == 0 {
				continue
			}
			attr := response
			if i < n {
				attr = cont[i]
			}
			factors = append(factors, query.Factor{Attr: attr, Power: pow[i]})
		}
		if len(factors) == 0 {
			r, ok := byID["count"]
			if !ok {
				return 0, fmt.Errorf("ml: poly batch missing count")
			}
			return r.Scalar, nil
		}
		id := polyID(factors)
		r, ok := byID[id]
		if !ok {
			return 0, fmt.Errorf("ml: poly batch missing %s", id)
		}
		return r.Scalar, nil
	}
	return trainPolyFromMoments(cont, response, moment, lambda)
}

// TrainPolyRegFromLifted trains the same degree-2 polynomial regression
// from one lifted degree-2 ring element, as maintained by the serving
// tier: features names the element's variables in ring index order, the
// response must be one of them, and the remaining features become the
// model's base features in order. This is the epoch-to-model bridge: no
// aggregate batch, no data access — the lifted element already carries
// every degree-≤4 moment the expanded normal equations touch.
func TrainPolyRegFromLifted(features []string, response string, p *ring.Poly2, lambda float64) (*PolyReg, error) {
	if p.Ring().N != len(features) {
		return nil, fmt.Errorf("ml: lifted element has %d features, name list has %d", p.Ring().N, len(features))
	}
	if err := CheckLifted(p, 1); err != nil {
		return nil, err
	}
	d, global, ry, err := splitResponse(features, response)
	if err != nil {
		return nil, err
	}
	global = append(global, ry) // global variable index of each local index; last is response

	// moment resolves SUM(Π x^pow) straight from the ring element:
	// accumulate powers per local index, map to global variables, sort,
	// and look the monomial up in the ring's enumeration.
	moment := func(parts ...[2]int) (float64, error) {
		pow := map[int]int{}
		for _, pt := range parts {
			pow[global[pt[0]]] += pt[1]
		}
		var vars []int
		var pows []uint8
		for v := 0; v < len(features); v++ {
			if q := pow[v]; q > 0 {
				vars = append(vars, v)
				pows = append(pows, uint8(q))
			}
		}
		m, ok := p.Moment(vars, pows)
		if !ok {
			return 0, fmt.Errorf("ml: lifted ring does not carry monomial %v^%v", vars, pows)
		}
		return m, nil
	}
	return trainPolyFromMoments(d.Cont, response, moment, lambda)
}

// trainPolyFromMoments is the shared solver: it assembles the expanded
// normal equations by querying `moment` for SUM(Π x^p) — parts index
// cont (0..n-1) and the response (n) with their powers — and solves the
// standardized-ridge system in closed form. Both the LMFAO batch path
// and the lifted-ring snapshot path funnel here, so they produce
// identical models from identical moments.
func trainPolyFromMoments(cont []string, response string, moment func(parts ...[2]int) (float64, error), lambda float64) (*PolyReg, error) {
	n := len(cont)
	dim := expandedDim(n)

	// Expanded feature e_k as a power profile over base features.
	profile := func(k int) [][2]int {
		if k == 0 {
			return nil
		}
		if k <= n {
			return [][2]int{{k - 1, 1}}
		}
		// invert pairPos
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if pairPos(n, i, j) == k {
					if i == j {
						return [][2]int{{i, 2}}
					}
					return [][2]int{{i, 1}, {j, 1}}
				}
			}
		}
		panic("ml: bad expanded index")
	}

	cnt, err := moment()
	if err != nil {
		return nil, err
	}
	if cnt <= 0 {
		return nil, fmt.Errorf("ml: poly regression over empty join: %w", ErrEmptySnapshot)
	}
	xtx, xty := square(dim), make([]float64, dim)
	for a := 0; a < dim; a++ {
		pa := profile(a)
		for b := 0; b <= a; b++ {
			v, err := moment(append(append([][2]int(nil), pa...), profile(b)...)...)
			if err != nil {
				return nil, err
			}
			xtx[a][b] = v / cnt
			xtx[b][a] = v / cnt
		}
		v, err := moment(append(append([][2]int(nil), pa...), [2]int{n, 1})...)
		if err != nil {
			return nil, err
		}
		xty[a] = v / cnt
	}
	for i := 0; i < dim; i++ {
		xtx[i][i] += lambda * ridgeScale(xtx[i][i])
	}
	theta, err := choleskySolve(xtx, xty)
	if err != nil {
		return nil, err
	}
	return &PolyReg{Cont: cont, Response: response, Theta: theta, Lambda: lambda}, nil
}

// PolyRegOverJoin runs the full pipeline: synthesize the batch, evaluate
// it with LMFAO over the join tree, and solve.
//
//borg:vet-ok deadexport — history_test.go holds the served polyreg to it
func PolyRegOverJoin(jt *query.JoinTree, cont []string, response string, lambda float64, opts core.Options) (*PolyReg, error) {
	plan, err := core.Compile(jt, PolyBatch(cont, response), opts)
	if err != nil {
		return nil, err
	}
	results, err := plan.Eval()
	if err != nil {
		return nil, err
	}
	return TrainPolyReg(cont, response, results, lambda)
}

// PairTheta returns the parameter of the x_i·x_j interaction term by
// base-feature index (i == j selects the square term).
func (m *PolyReg) PairTheta(i, j int) float64 { return m.Theta[pairPos(len(m.Cont), i, j)] }

// PredictVec evaluates the model on a base-feature vector.
func (m *PolyReg) PredictVec(x []float64) float64 {
	n := len(m.Cont)
	p := m.Theta[0]
	for i := 0; i < n; i++ {
		p += m.Theta[1+i] * x[i]
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p += m.Theta[pairPos(n, i, j)] * x[i] * x[j]
		}
	}
	return p
}
