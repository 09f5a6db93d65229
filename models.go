package borg

import (
	"fmt"
	"math"

	"borg/internal/core"
	"borg/internal/ml"
	"borg/internal/relation"
)

// LinearRegression is a ridge linear regression model trained over the
// join from aggregate results only.
type LinearRegression struct {
	model *ml.LinReg
	sigma *ml.Sigma
	dicts map[string]*relation.Dict
}

// LinearRegression trains a ridge model with the given features and
// response: one LMFAO covariance batch over the join, then gradient
// descent on the moments (Section 2.1 of the paper).
func (q *Query) LinearRegression(f Features, response string, lambda float64) (*LinearRegression, error) {
	sigma, err := q.covariance(f, response)
	if err != nil {
		return nil, err
	}
	m := GDOptions{}.train(sigma, lambda)
	return &LinearRegression{model: m, sigma: sigma, dicts: q.dicts(f.Categorical)}, nil
}

// Intercept returns the intercept parameter.
func (m *LinearRegression) Intercept() float64 { return m.model.Theta[0] }

// Coefficient returns the parameter of a continuous feature.
func (m *LinearRegression) Coefficient(attr string) (float64, error) {
	for i, a := range m.model.Cont {
		if a == attr {
			return m.model.Theta[m.model.ContPos(i)], nil
		}
	}
	return 0, fmt.Errorf("borg: %s is not a continuous feature of the model", attr)
}

// CategoryCoefficient returns the one-hot parameter of (attr, value),
// on a model trained from a Query or from a cofactor snapshot.
func (m *LinearRegression) CategoryCoefficient(attr, value string) (float64, error) {
	for k, g := range m.model.Cat {
		if g != attr {
			continue
		}
		code, ok := lookupCode(m.dicts, attr, value)
		if !ok {
			return 0, fmt.Errorf("borg: value %q never observed for %s", value, attr)
		}
		pos, ok := m.model.CatPos(k, code)
		if !ok {
			return 0, fmt.Errorf("borg: value %q not in the training data", value)
		}
		return m.model.Theta[pos], nil
	}
	return 0, fmt.Errorf("borg: %s is not a categorical feature of the model", attr)
}

// TrainingRMSE reports the root-mean-square error over the tuples the
// model was trained on, from the moment matrix it was trained from: the
// join is not materialized, and a model trained from a server snapshot
// is scored on that snapshot's epoch.
func (m *LinearRegression) TrainingRMSE() (float64, error) {
	if m.sigma.Count == 0 {
		return 0, fmt.Errorf("borg: the model was trained on an empty join")
	}
	return math.Sqrt(m.model.MSEFromSigma(m.sigma)), nil
}

// Retrain fits a new model over a SUBSET of the original features
// without touching the data — the Section 1.5 model-selection move.
func (m *LinearRegression) Retrain(f Features, lambda float64) (*LinearRegression, error) {
	sub, err := ml.SubsetSigma(m.sigma, f.Continuous, f.Categorical)
	if err != nil {
		return nil, err
	}
	return &LinearRegression{model: GDOptions{}.train(sub, lambda), sigma: sub, dicts: m.dicts}, nil
}

// covariance evaluates the covariance batch and assembles the moments.
func (q *Query) covariance(f Features, response string) (*ml.Sigma, error) {
	jt, err := q.tree()
	if err != nil {
		return nil, err
	}
	plan, err := core.Compile(jt, core.CovarianceBatch(f.core(), response), q.opts())
	if err != nil {
		return nil, err
	}
	results, err := plan.Eval()
	if err != nil {
		return nil, err
	}
	return ml.AssembleSigma(f.Continuous, f.Categorical, response, results)
}

// Covariance exposes the raw normalized moments of the features — the
// sufficient statistics every Section 2.1 model consumes.
type Covariance struct {
	sigma *ml.Sigma
}

// Covariance computes the covariance matrix of the features and response.
func (q *Query) Covariance(f Features, response string) (*Covariance, error) {
	s, err := q.covariance(f, response)
	if err != nil {
		return nil, err
	}
	return &Covariance{sigma: s}, nil
}

// Count returns the number of tuples in the join.
func (c *Covariance) Count() float64 { return c.sigma.Count }

// Mean returns the mean of a continuous feature over the join.
func (c *Covariance) Mean(attr string) (float64, error) {
	for i, a := range c.sigma.Cont {
		if a == attr {
			return c.sigma.XtX[0][c.sigma.ContPos(i)], nil
		}
	}
	return 0, fmt.Errorf("borg: %s not in covariance", attr)
}

// SecondMoment returns E[a·b] over the join for continuous features.
func (c *Covariance) SecondMoment(a, b string) (float64, error) {
	pa, pb := -1, -1
	for i, x := range c.sigma.Cont {
		if x == a {
			pa = c.sigma.ContPos(i)
		}
		if x == b {
			pb = c.sigma.ContPos(i)
		}
	}
	if pa < 0 || pb < 0 {
		return 0, fmt.Errorf("borg: %s or %s not in covariance", a, b)
	}
	return c.sigma.XtX[pa][pb], nil
}

// DecisionTree is a CART regression tree trained over the join.
type DecisionTree struct {
	tree *ml.Tree
}

// TreeOptions configures DecisionTree.
type TreeOptions struct {
	MaxDepth      int
	MinRows       float64
	ThresholdsPer int // candidate thresholds per continuous feature
}

// DecisionTree trains a CART regression tree: one LMFAO batch per tree
// node (Section 2.2), never materializing the join.
func (q *Query) DecisionTree(f Features, response string, opt TreeOptions) (*DecisionTree, error) {
	if opt.ThresholdsPer <= 0 {
		opt.ThresholdsPer = 8
	}
	jt, err := q.tree()
	if err != nil {
		return nil, err
	}
	ths := make(map[string][]float64, len(f.Continuous))
	for _, a := range f.Continuous {
		lo, hi, err := q.observedRange(a)
		if err != nil {
			return nil, err
		}
		if hi <= lo {
			hi = lo + 1
		}
		for i := 1; i <= opt.ThresholdsPer; i++ {
			ths[a] = append(ths[a], lo+(hi-lo)*float64(i)/float64(opt.ThresholdsPer+1))
		}
	}
	tree, err := ml.TrainCART(jt, ml.TreeConfig{
		Features:   f.core(),
		Response:   response,
		Thresholds: ths,
		MaxDepth:   opt.MaxDepth,
		MinRows:    opt.MinRows,
		Opts:       q.opts(),
	})
	if err != nil {
		return nil, err
	}
	return &DecisionTree{tree: tree}, nil
}

// Nodes returns the number of evaluated tree nodes.
func (t *DecisionTree) Nodes() int { return t.tree.Nodes }

// Depth returns the trained tree depth.
func (t *DecisionTree) Depth() int { return t.tree.Depth() }

// TrainingRMSE reports the root-mean-square error over the tuples the
// tree was trained on, from the response statistics kept at its leaves.
func (t *DecisionTree) TrainingRMSE() (float64, error) { return t.tree.TrainingRMSE() }

func (q *Query) observedRange(attr string) (float64, float64, error) {
	for _, r := range q.join.Relations {
		c := r.AttrIndex(attr)
		if c < 0 || r.NumRows() == 0 {
			continue
		}
		col := r.Col(c).F
		lo, hi := col[0], col[0]
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi, nil
	}
	return 0, 0, fmt.Errorf("borg: attribute %s not found or empty", attr)
}

// Clustering is the result of relational k-means.
type Clustering struct {
	Centers   [][]float64
	Objective float64
	Coreset   int
}

// KMeans clusters the join's tuples in the space of dims via the
// Rk-means-style grid coreset over gridAttr (Section 3.3): the coreset
// statistics come from one aggregate batch; Lloyd's algorithm never sees
// the data.
func (q *Query) KMeans(dims []string, gridAttr string, k, iters int, seed uint64) (*Clustering, error) {
	jt, err := q.tree()
	if err != nil {
		return nil, err
	}
	plan, err := core.Compile(jt, core.KMeansBatch(dims, gridAttr), q.opts())
	if err != nil {
		return nil, err
	}
	results, err := plan.Eval()
	if err != nil {
		return nil, err
	}
	coreset, err := ml.BuildCoreset(dims, results)
	if err != nil {
		return nil, err
	}
	centers, obj, err := ml.KMeans(coreset, k, iters, seed)
	if err != nil {
		return nil, err
	}
	return &Clustering{Centers: centers, Objective: obj, Coreset: len(coreset)}, nil
}

// DependencyEdge is one edge of a Chow–Liu dependency tree.
type DependencyEdge struct {
	A, B string
	MI   float64
}

// ChowLiu estimates the pairwise mutual information of the categorical
// attributes over the join and returns the maximum-spanning dependency
// tree (the "mutual inf." workload of Figure 5).
func (q *Query) ChowLiu(cats []string) ([]DependencyEdge, error) {
	jt, err := q.tree()
	if err != nil {
		return nil, err
	}
	plan, err := core.Compile(jt, core.MutualInfoBatch(cats), q.opts())
	if err != nil {
		return nil, err
	}
	results, err := plan.Eval()
	if err != nil {
		return nil, err
	}
	mi, err := ml.MutualInfo(cats, results)
	if err != nil {
		return nil, err
	}
	var out []DependencyEdge
	for _, e := range ml.ChowLiu(mi) {
		out = append(out, DependencyEdge{A: cats[e.A], B: cats[e.B], MI: e.MI})
	}
	return out, nil
}
