package ml

import (
	"fmt"

	"borg/internal/ineq"
	"borg/internal/relation"
)

// Linear SVM trained by subgradient descent over a two-relation join,
// with the hinge-loss subgradient computed through additive-inequality
// aggregates (Section 2.3): the violator set {(r,s) : y·(w·x) < 1} is an
// additive inequality over the join once the rows of R are partitioned
// by label, so each subgradient step costs O((|R|+|S|)·log|S|) with the
// factorized algorithm instead of Θ(|R ⋈ S|) with the classical scan.

// SVMConfig configures training.
type SVMConfig struct {
	// RFeatures/SFeatures are the continuous features on each side.
	RFeatures, SFeatures []string
	// Label is a continuous attribute of R holding ±1.
	Label string
	// Key is the shared categorical join attribute.
	Key string
	// Lambda is the L2 regularization strength; LR the step size; Iters
	// the number of subgradient steps.
	Lambda, LR float64
	Iters      int
	// Scan switches to the classical per-pair evaluation (the baseline
	// of the §2.3 figure).
	Scan bool
}

// SVM is the trained model.
type SVM struct {
	SVMConfig
	// WR and WS are the weights of the R-side and S-side features; Bias
	// the intercept.
	WR, WS []float64
	Bias   float64
}

// TrainSVM trains the model over R ⋈ S.
func TrainSVM(r, s *relation.Relation, cfg SVMConfig) (*SVM, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 50
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.1
	}
	// Partition R by label so the margin becomes additive per partition.
	lc := r.AttrIndex(cfg.Label)
	if lc < 0 {
		return nil, fmt.Errorf("ml: label %s not in %s", cfg.Label, r.Name)
	}
	pos, neg := r.CloneEmpty(), r.CloneEmpty()
	pos.Name, neg.Name = r.Name+"+", r.Name+"-"
	for i := 0; i < r.NumRows(); i++ {
		if r.Float(lc, i) >= 0 {
			pos.AppendRowFrom(r, i)
		} else {
			neg.AppendRowFrom(r, i)
		}
	}
	posPair, err := ineq.NewPair(pos, s, cfg.Key)
	if err != nil {
		return nil, err
	}
	negPair, err := ineq.NewPair(neg, s, cfg.Key)
	if err != nil {
		return nil, err
	}

	rFns := make([]ineq.RowFunc, len(cfg.RFeatures))
	for i, a := range cfg.RFeatures {
		if rFns[i], err = ineq.Col(r, a); err != nil {
			return nil, err
		}
	}
	sFns := make([]ineq.RowFunc, len(cfg.SFeatures))
	for i, a := range cfg.SFeatures {
		if sFns[i], err = ineq.Col(s, a); err != nil {
			return nil, err
		}
	}

	m := &SVM{SVMConfig: cfg, WR: make([]float64, len(rFns)), WS: make([]float64, len(sFns))}
	nR, nS := len(rFns), len(sFns)
	total := float64(pairCount(posPair) + pairCount(negPair))
	if total == 0 {
		return nil, fmt.Errorf("ml: empty join, nothing to train on")
	}

	eval := func(p *ineq.Pair, a, b ineq.RowFunc, c float64) ineq.Result {
		if cfg.Scan {
			return p.EvalScan(a, b, rFns, sFns, c)
		}
		return p.Eval(a, b, rFns, sFns, c)
	}

	for it := 0; it < cfg.Iters; it++ {
		gradR := make([]float64, nR)
		gradS := make([]float64, nS)
		gradB := 0.0

		// Positive labels: violators have w·x + b < 1, i.e.
		// (-wR·xR) + (-wS·xS) > b - 1; subgradient adds -x per violator.
		aPos := ineq.Weighted(rFns, scale(m.WR, -1))
		bPos := ineq.Weighted(sFns, scale(m.WS, -1))
		resPos := eval(posPair, aPos, bPos, m.Bias-1)
		for i := range gradR {
			gradR[i] -= resPos.FR[i]
		}
		for i := range gradS {
			gradS[i] -= resPos.GS[i]
		}
		gradB -= resPos.Count

		// Negative labels: violators have -(w·x + b) < 1, i.e.
		// (wR·xR) + (wS·xS) > -1 - b; subgradient adds +x per violator.
		aNeg := ineq.Weighted(rFns, m.WR)
		bNeg := ineq.Weighted(sFns, m.WS)
		resNeg := eval(negPair, aNeg, bNeg, -1-m.Bias)
		for i := range gradR {
			gradR[i] += resNeg.FR[i]
		}
		for i := range gradS {
			gradS[i] += resNeg.GS[i]
		}
		gradB += resNeg.Count

		lr := cfg.LR / (1 + 0.1*float64(it))
		for i := range m.WR {
			m.WR[i] -= lr * (cfg.Lambda*m.WR[i] + gradR[i]/total)
		}
		for i := range m.WS {
			m.WS[i] -= lr * (cfg.Lambda*m.WS[i] + gradS[i]/total)
		}
		m.Bias -= lr * gradB / total
	}
	return m, nil
}

// Margin computes y·(w·x + b) for one joined pair.
func (m *SVM) Margin(r *relation.Relation, ri int, s *relation.Relation, si int) (float64, error) {
	lc := r.AttrIndex(m.Label)
	if lc < 0 {
		return 0, fmt.Errorf("ml: label %s not in %s", m.Label, r.Name)
	}
	v := m.Bias
	for i, a := range m.RFeatures {
		c := r.AttrIndex(a)
		v += m.WR[i] * r.Float(c, ri)
	}
	for i, a := range m.SFeatures {
		c := s.AttrIndex(a)
		v += m.WS[i] * s.Float(c, si)
	}
	y := 1.0
	if r.Float(lc, ri) < 0 {
		y = -1
	}
	return y * v, nil
}

func scale(w []float64, k float64) []float64 {
	out := make([]float64, len(w))
	for i := range w {
		out[i] = k * w[i]
	}
	return out
}

// pairCount counts the joined pairs of a Pair with a trivially true
// inequality.
func pairCount(p *ineq.Pair) int {
	res := p.Eval(ineq.One, ineq.One, nil, nil, 0) // 1+1 > 0 always
	return int(res.Count)
}
