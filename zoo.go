package borg

import (
	"errors"
	"fmt"
	"math"
	"time"

	"borg/internal/ml"
	"borg/internal/relation"
)

// This file is the snapshot model zoo: every model the serving tier can
// train from ONE published epoch's ring statistics, with zero
// interruption of the write path. The paper's central claim — a single
// factorized aggregate batch is the sufficient statistic for a whole
// family of models — becomes, in serving terms: one epoch, many models.
//
//	TrainLinReg / TrainLinRegGD   ridge linear regression  (covariance triple,
//	                              one-hot design on PayloadCofactor)
//	TrainPCA                      principal components     (covariance triple)
//	KMeansSeeds                   Rk-means-style seeding   (covariance triple)
//	TrainPolyReg                  degree-2 polynomial reg. (lifted degree-2 ring;
//	                              varying coefficients on PayloadCofactor)
//	TrainChowLiu                  Chow–Liu dependency tree (cofactor ring)
//	TrainCTree                    categorical regression tree (cofactor ring)
//	TrainSVM                      least-squares linear SVM (cofactor ring)
//
// Every trainer passes the same degenerate-snapshot gate first: a
// snapshot of an empty join (never populated, or churned to empty by
// deletes) yields ErrEmptySnapshot — a typed error, never NaN
// coefficients.

// ErrEmptySnapshot is returned by every snapshot read and trainer when
// the join has no live tuples at the snapshot's epoch: there is nothing
// to train on, and the alternative — dividing by a zero count — would
// silently produce NaN models. Test with errors.Is; cmd/borg-serve maps
// it to HTTP 409.
var ErrEmptySnapshot = ml.ErrEmptySnapshot

// ErrPayloadNotMaintained is returned by trainers whose statistics the
// server was not started with: polynomial regression needs
// ServerOptions{Payload: PayloadPoly2} (or PayloadCofactor for the
// varying-coefficients form), and the categorical zoo (TrainChowLiu,
// TrainCTree, TrainSVM) needs ServerOptions{Payload: PayloadCofactor}.
var ErrPayloadNotMaintained = errors.New("borg: the server does not maintain the ring statistics this model kind needs; start it with the matching ServerOptions.Payload")

// ErrMissingFeature is wrapped by Predict/Project when the caller's
// value map omits one of the model's features — a client-input error,
// distinguishable (errors.Is) from server-state errors like
// ErrEmptySnapshot.
var ErrMissingFeature = errors.New("borg: missing feature value")

// ready is the shared snapshot validation of the model zoo: minimum
// support of one joined tuple and finite moments. Every trainer and
// statistics read funnels through it, so the degenerate-snapshot bug
// class is handled once, centrally, for all model kinds — on the one
// triple a cofactor epoch derives, however many models read it.
func (s *ServerSnapshot) ready() error {
	return ml.CheckSnapshot(s.snap.Stats(), 1)
}

// derived returns what fn computes from this epoch under key: the
// epoch's first reader of key runs fn, and every later or concurrent one
// shares its outcome for as long as the epoch lives (serve's
// Snapshot.Derive). It holds statistics, never a trained model.
func derived[T any](s *ServerSnapshot, key any, fn func() (T, error)) (T, error) {
	return s.snap.Derive(key, func() any {
		if onDerive != nil {
			onDerive(key)
		}
		v, err := fn()
		return func() (T, error) { return v, err }
	}).(func() (T, error))()
}

// onDerive, when set, sees the key of every derivation an epoch runs.
var onDerive func(key any)

// The keys of a cofactor zoo round: the group layout every categorical
// trainer reads, and the moment matrix per response that TrainLinReg and
// TrainSVM share.
type (
	layoutKey struct{}
	sigmaKey  string
)

// layout is this cofactor epoch's ml.CatLayout.
func (s *ServerSnapshot) layout() *ml.CatLayout {
	L, _ := derived(s, layoutKey{}, func() (*ml.CatLayout, error) { return ml.NewCatLayout(s.snap.Cofactor()), nil })
	return L
}

// sigma is this epoch's moment matrix for the given response: the
// one-hot design over continuous and categorical features on a cofactor
// snapshot, the plain continuous design otherwise.
func (s *ServerSnapshot) sigma(response string) (*ml.Sigma, error) {
	return derived(s, sigmaKey(response), func() (*ml.Sigma, error) {
		if s.Payload() == PayloadCofactor {
			return s.layout().Sigma(s.features, s.catFeatures, response)
		}
		return ml.SigmaFromCovar(s.features, response, s.snap.Stats())
	})
}

// GDOptions tunes the gradient-descent trainers. The zero value selects
// the defaults (50000 iterations, tolerance 1e-10).
type GDOptions struct {
	// MaxIters caps the gradient steps; training that exhausts the cap
	// reports Converged() == false instead of silently truncating.
	MaxIters int
	// Tol is the gradient-norm stopping tolerance.
	Tol float64
}

func (o GDOptions) maxIters() int {
	if o.MaxIters <= 0 {
		return 50000
	}
	return o.MaxIters
}

func (o GDOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

// train runs the descent under these options — the one place the
// defaults meet ml.TrainLinRegGD.
func (o GDOptions) train(s *ml.Sigma, lambda float64) *ml.LinReg {
	return ml.TrainLinRegGD(s, lambda, o.maxIters(), o.tol())
}

// Converged reports whether gradient descent stopped at its tolerance
// (true for closed-form training). False means the iteration budget ran
// out and the parameters are a truncation — retrain with a larger
// GDOptions.MaxIters or treat the model as approximate.
func (m *LinearRegression) Converged() bool { return m.model.Converged }

// IterationsRun returns how many gradient steps training took (0 for
// the closed form).
func (m *LinearRegression) IterationsRun() int { return m.model.Iterations }

// Predict evaluates the model on named continuous feature values (all
// the model's continuous features must be present). Models with
// categorical features (trained on a PayloadCofactor snapshot) predict
// through PredictCat instead.
func (m *LinearRegression) Predict(values map[string]float64) (float64, error) {
	if len(m.model.Cat) > 0 {
		return 0, fmt.Errorf("borg: Predict supports continuous-only models; this model has categorical features — use PredictCat")
	}
	p := m.model.Theta[0]
	for i, a := range m.model.Cont {
		v, ok := values[a]
		if !ok {
			return 0, fmt.Errorf("%w: Predict needs %s", ErrMissingFeature, a)
		}
		p += m.model.Theta[m.model.ContPos(i)] * v
	}
	return p, nil
}

// PredictCat evaluates a mixed continuous/categorical model: values
// supplies every continuous feature, cats every categorical feature as
// its category string. Category values never observed at training
// contribute an all-zero one-hot block (the design-space convention).
func (m *LinearRegression) PredictCat(values map[string]float64, cats map[string]string) (float64, error) {
	x, codes, err := resolveDesignInputs(m.model.Cont, m.model.Cat, m.dicts, values, cats)
	if err != nil {
		return 0, err
	}
	return m.model.PredictDesign(x, codes), nil
}

// resolveDesignInputs converts the facade's named prediction inputs to
// design-space vectors: continuous values in Cont order and one
// dictionary code per categorical feature (-1 when the category string
// was never interned — an unobserved category, a zero one-hot block).
func resolveDesignInputs(cont, cat []string, dicts map[string]*relation.Dict, values map[string]float64, cats map[string]string) ([]float64, []int32, error) {
	x := make([]float64, len(cont))
	for i, a := range cont {
		v, ok := values[a]
		if !ok {
			return nil, nil, fmt.Errorf("%w: prediction needs %s", ErrMissingFeature, a)
		}
		x[i] = v
	}
	codes := make([]int32, len(cat))
	for k, g := range cat {
		sv, ok := cats[g]
		if !ok {
			return nil, nil, fmt.Errorf("%w: prediction needs categorical %s", ErrMissingFeature, g)
		}
		codes[k] = -1
		if code, ok := lookupCode(dicts, g, sv); ok {
			codes[k] = code
		}
	}
	return x, codes, nil
}

// lookupCode resolves a category string through the server's shared
// dictionaries.
func lookupCode(dicts map[string]*relation.Dict, attr, value string) (int32, bool) {
	d := dicts[attr]
	if d == nil {
		return 0, false
	}
	internMu.RLock()
	code, ok := d.Lookup(value)
	internMu.RUnlock()
	return code, ok
}

// TrainLinRegGD trains a ridge linear regression of the response on the
// remaining maintained features from this epoch's statistics, with
// explicit gradient-descent controls. On a PayloadCofactor snapshot the
// design additionally one-hot encodes the categorical features from the
// cofactor group maps. Non-convergence within GDOptions.MaxIters is
// reported through Converged(), not silently swallowed.
func (s *ServerSnapshot) TrainLinRegGD(response string, lambda float64, opt GDOptions) (_ *LinearRegression, err error) {
	defer s.obsTrain("linreg", time.Now(), &err)
	if _, err := s.featureIndex(response); err != nil {
		return nil, err
	}
	if err := s.ready(); err != nil {
		return nil, err
	}
	sigma, err := s.sigma(response)
	if err != nil {
		return nil, err
	}
	m := opt.train(sigma, lambda)
	s.obsGD(m)
	return &LinearRegression{model: m, sigma: sigma, dicts: s.dicts}, nil
}

// PCAResult is a principal-component analysis trained from one epoch's
// covariance statistics: the top-k eigenpairs of the centered covariance
// of the maintained features.
type PCAResult struct {
	// Features names the component dimensions, in order.
	Features []string
	// Components holds k unit-length principal axes (rows), leading
	// eigenvalue first.
	Components [][]float64
	// Eigenvalues are the corresponding variances along each axis.
	Eigenvalues []float64
	// Means holds the per-feature means the components are centered
	// against.
	Means []float64
	// Count is the joined-tuple count the statistics cover; Epoch the
	// snapshot's publication sequence number.
	Count float64
	Epoch uint64
}

// TrainPCA extracts the top-k principal components at this epoch — the
// covariance triple alone is the sufficient statistic, so training costs
// O(k·n²) independent of the data size. k ≤ 0 or k > features selects
// all components.
func (s *ServerSnapshot) TrainPCA(k int) (_ *PCAResult, err error) {
	defer s.obsTrain("pca", time.Now(), &err)
	if err := s.ready(); err != nil {
		return nil, err
	}
	sigma, err := ml.MomentsFromCovar(s.features, s.snap.Stats())
	if err != nil {
		return nil, err
	}
	comps, eigs, err := ml.PCA(sigma, k, 0, pcaSeed)
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(s.features))
	for i := range means {
		means[i] = sigma.XtX[0][i+1]
	}
	return &PCAResult{
		Features:    s.features,
		Components:  comps,
		Eigenvalues: eigs,
		Means:       means,
		Count:       s.snap.Count(),
		Epoch:       s.snap.Epoch,
	}, nil
}

// pcaSeed fixes the power-iteration start so PCA is a pure function of
// the snapshot statistics: equal epochs give equal components.
const pcaSeed = 2020

// Project maps named feature values onto the principal axes: the
// mean-centered dot product with each component.
func (p *PCAResult) Project(values map[string]float64) ([]float64, error) {
	x := make([]float64, len(p.Features))
	for i, f := range p.Features {
		v, ok := values[f]
		if !ok {
			return nil, fmt.Errorf("%w: Project needs %s", ErrMissingFeature, f)
		}
		x[i] = v - p.Means[i]
	}
	out := make([]float64, len(p.Components))
	for c, comp := range p.Components {
		dot := 0.0
		for i := range x {
			dot += comp[i] * x[i]
		}
		out[c] = dot
	}
	return out, nil
}

// PolyRegression is a degree-2 polynomial regression trained from one
// epoch's statistics: on a PayloadPoly2 snapshot, linear in the
// expanded space {1, x_i, x_i·x_j}; on a PayloadCofactor snapshot, the
// varying-coefficients categorical analogue {1, x_i, 1[g=c], x_i·1[g=c]}.
type PolyRegression struct {
	model *ml.PolyReg // poly2 path; nil on the cofactor path
	cat   *ml.CatPoly // cofactor path; nil on the poly2 path
	dicts map[string]*relation.Dict
	// Count and Epoch identify the statistics the model was trained on.
	Count float64
	Epoch uint64
}

// TrainPolyReg trains a degree-2 polynomial ridge regression of the
// response on the remaining maintained features, purely from this
// epoch's ring statistics. The server must maintain the lifted degree-2
// ring (ServerOptions{Payload: PayloadPoly2}) or the cofactor ring
// (PayloadCofactor, which trains the varying-coefficients categorical
// form); otherwise ErrPayloadNotMaintained.
func (s *ServerSnapshot) TrainPolyReg(response string, lambda float64) (_ *PolyRegression, err error) {
	defer s.obsTrain("polyreg", time.Now(), &err)
	if _, err := s.featureIndex(response); err != nil {
		return nil, err
	}
	if err := s.ready(); err != nil {
		return nil, err
	}
	switch {
	case s.Payload() == PayloadCofactor:
		m, err := s.layout().TrainCatPoly(s.features, s.catFeatures, response, lambda)
		if err != nil {
			return nil, err
		}
		return &PolyRegression{cat: m, dicts: s.dicts, Count: s.snap.Count(), Epoch: s.snap.Epoch}, nil
	case s.snap.Lifted != nil:
		m, err := ml.TrainPolyRegFromLifted(s.features, response, s.snap.Lifted, lambda)
		if err != nil {
			return nil, err
		}
		return &PolyRegression{model: m, Count: s.snap.Count(), Epoch: s.snap.Epoch}, nil
	}
	return nil, ErrPayloadNotMaintained
}

// Intercept returns the intercept parameter.
func (m *PolyRegression) Intercept() float64 {
	if m.cat != nil {
		return m.cat.Theta[0]
	}
	return m.model.Theta[0]
}

// Features returns the model's base continuous features, in order.
func (m *PolyRegression) Features() []string {
	if m.cat != nil {
		return m.cat.Cont
	}
	return m.model.Cont
}

// CatFeatures returns the model's categorical features (empty on the
// poly2 path).
func (m *PolyRegression) CatFeatures() []string {
	if m.cat != nil {
		return m.cat.Cat
	}
	return nil
}

// Response returns the response attribute.
func (m *PolyRegression) Response() string {
	if m.cat != nil {
		return m.cat.Response
	}
	return m.model.Response
}

// Coefficient returns the base linear parameter of a continuous feature.
func (m *PolyRegression) Coefficient(attr string) (float64, error) {
	cont := m.Features()
	for i, a := range cont {
		if a == attr {
			if m.cat != nil {
				return m.cat.Theta[1+i], nil
			}
			return m.model.Theta[1+i], nil
		}
	}
	return 0, fmt.Errorf("borg: %s is not a feature of the model", attr)
}

// PairCoefficient returns the parameter of the x_a·x_b interaction term
// (a == b selects the square term). The varying-coefficients cofactor
// form has categorical interactions instead — it reports an error here.
func (m *PolyRegression) PairCoefficient(a, b string) (float64, error) {
	if m.cat != nil {
		return 0, fmt.Errorf("borg: the varying-coefficients model has no continuous-pair terms; its interactions are continuous×category")
	}
	ia, ib := -1, -1
	for i, f := range m.model.Cont {
		if f == a {
			ia = i
		}
		if f == b {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return 0, fmt.Errorf("borg: %s or %s is not a feature of the model", a, b)
	}
	return m.model.PairTheta(ia, ib), nil
}

// Predict evaluates the model on named continuous feature values. The
// varying-coefficients cofactor form needs the categorical values too —
// use PredictCat.
func (m *PolyRegression) Predict(values map[string]float64) (float64, error) {
	if m.cat != nil {
		return 0, fmt.Errorf("borg: this model has categorical features — use PredictCat")
	}
	x := make([]float64, len(m.model.Cont))
	for i, a := range m.model.Cont {
		v, ok := values[a]
		if !ok {
			return 0, fmt.Errorf("%w: Predict needs %s", ErrMissingFeature, a)
		}
		x[i] = v
	}
	return m.model.PredictVec(x), nil
}

// PredictCat evaluates the model with explicit categorical values. On
// the poly2 path the categorical map is ignored.
func (m *PolyRegression) PredictCat(values map[string]float64, cats map[string]string) (float64, error) {
	if m.cat == nil {
		return m.Predict(values)
	}
	x, codes, err := resolveDesignInputs(m.cat.Cont, m.cat.Cat, m.dicts, values, cats)
	if err != nil {
		return 0, err
	}
	return m.cat.PredictVec(x, codes), nil
}

// DependencyEdge is declared in models.go and shared with the batch
// Query.ChowLiu path.

// TrainChowLiu estimates the pairwise mutual information of the
// maintained categorical features from this epoch's cofactor group
// counts and returns the maximum-spanning dependency tree — the live
// form of Query.ChowLiu, no data access. Requires PayloadCofactor.
func (s *ServerSnapshot) TrainChowLiu() (_ []DependencyEdge, err error) {
	defer s.obsTrain("chowliu", time.Now(), &err)
	if s.Payload() != PayloadCofactor {
		return nil, ErrPayloadNotMaintained
	}
	if err := s.ready(); err != nil {
		return nil, err
	}
	mi, err := s.layout().MutualInfo(s.catFeatures)
	if err != nil {
		return nil, err
	}
	var out []DependencyEdge
	for _, e := range ml.ChowLiu(mi) {
		out = append(out, DependencyEdge{A: s.catFeatures[e.A], B: s.catFeatures[e.B], MI: e.MI})
	}
	return out, nil
}

// TrainCTree trains a CART-style regression tree of the response whose
// splits are category-equality predicates, scored entirely from this
// epoch's cofactor group aggregates (TreeOptions.ThresholdsPer is
// unused: thresholded continuous splits need per-threshold statistics
// the cofactor ring does not carry). Requires PayloadCofactor.
func (s *ServerSnapshot) TrainCTree(response string, opt TreeOptions) (_ *DecisionTree, err error) {
	defer s.obsTrain("ctree", time.Now(), &err)
	if _, err := s.featureIndex(response); err != nil {
		return nil, err
	}
	if s.Payload() != PayloadCofactor {
		return nil, ErrPayloadNotMaintained
	}
	if err := s.ready(); err != nil {
		return nil, err
	}
	tree, err := s.layout().CTree(s.features, s.catFeatures, response, ml.CatTreeConfig{
		MaxDepth: opt.MaxDepth,
		MinRows:  opt.MinRows,
	})
	if err != nil {
		return nil, err
	}
	return &DecisionTree{tree: tree}, nil
}

// SVMClassifier is a least-squares linear SVM trained from one epoch's
// cofactor statistics: a ridge regression of a ±1 label on the one-hot
// design, thresholded at zero for classification.
type SVMClassifier struct {
	model *ml.LSSVM
	dicts map[string]*relation.Dict
	Count float64
	Epoch uint64
}

// TrainSVM trains the classifier at this epoch. The label must be a
// maintained continuous feature carrying ±1; the remaining continuous
// features plus the one-hot categorical expansion form the design.
// Requires PayloadCofactor.
func (s *ServerSnapshot) TrainSVM(label string, lambda float64) (_ *SVMClassifier, err error) {
	defer s.obsTrain("svm", time.Now(), &err)
	if _, err := s.featureIndex(label); err != nil {
		return nil, err
	}
	if s.Payload() != PayloadCofactor {
		return nil, ErrPayloadNotMaintained
	}
	if err := s.ready(); err != nil {
		return nil, err
	}
	sigma, err := s.sigma(label)
	if err != nil {
		return nil, err
	}
	m, err := ml.TrainLSSVM(sigma, lambda)
	if err != nil {
		return nil, err
	}
	return &SVMClassifier{model: m, dicts: s.dicts, Count: s.snap.Count(), Epoch: s.snap.Epoch}, nil
}

// Features returns the classifier's continuous features, in order.
func (m *SVMClassifier) Features() []string { return m.model.Cont }

// CatFeatures returns the classifier's categorical features, in order.
func (m *SVMClassifier) CatFeatures() []string { return m.model.Cat }

// Bias returns the intercept of the decision function.
func (m *SVMClassifier) Bias() float64 { return m.model.Theta[0] }

// Coefficient returns the weight of a continuous feature.
func (m *SVMClassifier) Coefficient(attr string) (float64, error) {
	for i, a := range m.model.Cont {
		if a == attr {
			return m.model.Theta[m.model.ContPos(i)], nil
		}
	}
	return 0, fmt.Errorf("borg: %s is not a continuous feature of the model", attr)
}

// DecisionValue evaluates w·φ(x)+b on named feature values (continuous
// in values, categorical strings in cats).
func (m *SVMClassifier) DecisionValue(values map[string]float64, cats map[string]string) (float64, error) {
	x, codes, err := resolveDesignInputs(m.model.Cont, m.model.Cat, m.dicts, values, cats)
	if err != nil {
		return 0, err
	}
	return m.model.DecisionValue(x, codes), nil
}

// Classify returns the predicted ±1 label.
func (m *SVMClassifier) Classify(values map[string]float64, cats map[string]string) (float64, error) {
	v, err := m.DecisionValue(values, cats)
	if err != nil {
		return 0, err
	}
	if v >= 0 {
		return 1, nil
	}
	return -1, nil
}

// KMeansSeeding is a set of cluster seeds derived from one epoch's
// covariance statistics: the mean plus principal-axis offsets, the
// Rk-means-style initialization for a downstream Lloyd's run.
type KMeansSeeding struct {
	// Features names the seed dimensions, in order.
	Features []string
	// Centers holds k seed points; Centers[0] is the mean.
	Centers [][]float64
	// TotalVariance is the trace of the centered covariance — the k-means
	// objective of the single-cluster solution, an upper bound any
	// clustering must beat.
	TotalVariance float64
	Count         float64
	Epoch         uint64
}

// KMeansSeeds derives k cluster seeds at this epoch, from the ring
// statistics alone — no data access. Seeds initialize a downstream
// Lloyd's run (e.g. Query.KMeans over a coreset, or an external
// clusterer over fresh data).
func (s *ServerSnapshot) KMeansSeeds(k int) (_ *KMeansSeeding, err error) {
	defer s.obsTrain("kmeans", time.Now(), &err)
	if err := s.ready(); err != nil {
		return nil, err
	}
	sigma, err := ml.MomentsFromCovar(s.features, s.snap.Stats())
	if err != nil {
		return nil, err
	}
	centers, err := ml.KMeansSeeds(sigma, k)
	if err != nil {
		return nil, err
	}
	variance := 0.0
	for i := range s.features {
		mean := sigma.XtX[0][i+1]
		variance += sigma.XtX[i+1][i+1] - mean*mean
	}
	variance *= s.snap.Count()
	if math.IsNaN(variance) {
		variance = 0
	}
	return &KMeansSeeding{
		Features:      s.features,
		Centers:       centers,
		TotalVariance: variance,
		Count:         s.snap.Count(),
		Epoch:         s.snap.Epoch,
	}, nil
}

// TrainLinRegGD trains on the current ring-merged statistics with
// explicit gradient-descent controls.
func (s *ShardedServer) TrainLinRegGD(response string, lambda float64, opt GDOptions) (*LinearRegression, error) {
	return s.CovarSnapshot().TrainLinRegGD(response, lambda, opt)
}

// TrainPCA extracts principal components from the current ring-merged
// statistics — identical to an unsharded server's components.
func (s *ShardedServer) TrainPCA(k int) (*PCAResult, error) { return s.CovarSnapshot().TrainPCA(k) }

// TrainPolyReg trains a degree-2 polynomial regression from the current
// ring-merged statistics (requires PayloadPoly2 or PayloadCofactor).
func (s *ShardedServer) TrainPolyReg(response string, lambda float64) (*PolyRegression, error) {
	return s.CovarSnapshot().TrainPolyReg(response, lambda)
}

// KMeansSeeds derives cluster seeds from the current ring-merged
// statistics.
func (s *ShardedServer) KMeansSeeds(k int) (*KMeansSeeding, error) {
	return s.CovarSnapshot().KMeansSeeds(k)
}

// TrainChowLiu returns the Chow–Liu dependency tree from the current
// ring-merged cofactor statistics (requires PayloadCofactor).
func (s *ShardedServer) TrainChowLiu() ([]DependencyEdge, error) {
	return s.CovarSnapshot().TrainChowLiu()
}

// TrainCTree trains a categorical regression tree from the current
// ring-merged cofactor statistics (requires PayloadCofactor).
func (s *ShardedServer) TrainCTree(response string, opt TreeOptions) (*DecisionTree, error) {
	return s.CovarSnapshot().TrainCTree(response, opt)
}

// TrainSVM trains a least-squares SVM from the current ring-merged
// cofactor statistics (requires PayloadCofactor).
func (s *ShardedServer) TrainSVM(label string, lambda float64) (*SVMClassifier, error) {
	return s.CovarSnapshot().TrainSVM(label, lambda)
}
