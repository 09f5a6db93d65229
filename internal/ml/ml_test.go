package ml

import (
	"math"
	"testing"

	"borg/internal/core"
	"borg/internal/engine"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// regressionStar builds a star with a planted linear signal:
// y = 2 + 1.5·fx − 2·d0x + catEffect(d0g) + noise.
func regressionStar(seed uint64, factRows int) (*relation.Database, *query.Join) {
	db := relation.NewDatabase()
	fact := db.NewRelation("Fact", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "fx", Type: relation.Double},
		{Name: "y", Type: relation.Double},
	})
	dim := db.NewRelation("Dim0", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "d0x", Type: relation.Double},
		{Name: "d0g", Type: relation.Category},
	})
	src := xrand.New(seed)
	const nDim = 20
	effects := []float64{0, 1, -1, 0.5}
	d0x := make([]float64, nDim)
	d0g := make([]int32, nDim)
	for i := 0; i < nDim; i++ {
		d0x[i] = src.Float64()*2 - 1
		d0g[i] = int32(src.Intn(len(effects)))
		dim.AppendRow(relation.CatVal(int32(i)), relation.FloatVal(d0x[i]), relation.CatVal(d0g[i]))
	}
	for r := 0; r < factRows; r++ {
		k := src.Intn(nDim)
		fx := src.Float64()*2 - 1
		y := 2 + 1.5*fx - 2*d0x[k] + effects[d0g[k]] + 0.01*(src.Float64()-0.5)
		fact.AppendRow(relation.CatVal(int32(k)), relation.FloatVal(fx), relation.FloatVal(y))
	}
	return db, query.NewJoin(fact, dim)
}

func sigmaFor(t *testing.T, j *query.Join, cont, cat []string, response string) (*Sigma, *relation.Relation) {
	t.Helper()
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	var features []core.Feature
	for _, c := range cont {
		features = append(features, core.Feature{Attr: c})
	}
	for _, g := range cat {
		features = append(features, core.Feature{Attr: g, Categorical: true})
	}
	plan, err := core.Compile(jt, core.CovarianceBatch(features, response), core.Optimized(2))
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := AssembleSigma(cont, cat, response, results)
	if err != nil {
		t.Fatal(err)
	}
	data, err := engine.MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	return sigma, data
}

func TestSigmaMatchesDirectComputation(t *testing.T) {
	_, j := regressionStar(1, 500)
	sigma, data := sigmaFor(t, j, []string{"fx", "d0x"}, []string{"d0g"}, "y")

	// Recompute XtX and XtY directly from the materialized matrix.
	n := sigma.Size()
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	vec := make([]float64, n)
	yc := data.AttrIndex("y")
	rows := float64(data.NumRows())
	for r := 0; r < data.NumRows(); r++ {
		if err := sigma.FeatureVector(data, r, vec); err != nil {
			t.Fatal(err)
		}
		y := data.Float(yc, r)
		for i := 0; i < n; i++ {
			xty[i] += vec[i] * y
			for k := 0; k < n; k++ {
				xtx[i][k] += vec[i] * vec[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(xty[i]/rows-sigma.XtY[i]) > 1e-6 {
			t.Fatalf("XtY[%d]: direct %v, sigma %v", i, xty[i]/rows, sigma.XtY[i])
		}
		for k := 0; k < n; k++ {
			if math.Abs(xtx[i][k]/rows-sigma.XtX[i][k]) > 1e-6 {
				t.Fatalf("XtX[%d][%d]: direct %v, sigma %v", i, k, xtx[i][k]/rows, sigma.XtX[i][k])
			}
		}
	}
	if sigma.Count != rows {
		t.Fatalf("Count = %v, rows = %v", sigma.Count, rows)
	}
}

func TestGDMatchesClosedForm(t *testing.T) {
	_, j := regressionStar(2, 600)
	sigma, _ := sigmaFor(t, j, []string{"fx", "d0x"}, []string{"d0g"}, "y")
	const lambda = 1e-3
	cf, err := TrainLinRegClosedForm(sigma, lambda)
	if err != nil {
		t.Fatal(err)
	}
	gd := TrainLinRegGD(sigma, lambda, 200000, 1e-12)
	for i := range cf.Theta {
		if math.Abs(cf.Theta[i]-gd.Theta[i]) > 1e-4*(1+math.Abs(cf.Theta[i])) {
			t.Fatalf("theta[%d]: closed form %v, GD %v (after %d iters)", i, cf.Theta[i], gd.Theta[i], gd.Iterations)
		}
	}
	if gd.Iterations == 0 {
		t.Fatal("GD did no work")
	}
}

func TestLinRegBeatsMeanBaseline(t *testing.T) {
	_, j := regressionStar(3, 800)
	sigma, data := sigmaFor(t, j, []string{"fx", "d0x"}, []string{"d0g"}, "y")
	m, err := TrainLinRegClosedForm(sigma, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := m.RMSE(data)
	if err != nil {
		t.Fatal(err)
	}
	// Mean-predictor RMSE = std dev of y.
	std := math.Sqrt(sigma.YtY - sigma.XtY[0]*sigma.XtY[0])
	if rmse > std/3 {
		t.Fatalf("model RMSE %v not well below response stddev %v", rmse, std)
	}
	// With the planted signal and one-hot cats, fit should be near noise.
	if rmse > 0.05 {
		t.Fatalf("model RMSE %v, expected near the 0.01 noise level", rmse)
	}
	if obj := m.ObjectiveFromSigma(sigma); math.IsNaN(obj) || obj < 0 {
		t.Fatalf("objective = %v", obj)
	}
}

func TestLinRegErrors(t *testing.T) {
	_, j := regressionStar(4, 50)
	sigma, data := sigmaFor(t, j, []string{"fx"}, nil, "y")
	if _, err := AssembleSigma([]string{"fx"}, nil, "y", nil); err == nil {
		t.Fatal("missing aggregates accepted")
	}
	m, err := TrainLinRegClosedForm(sigma, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	empty := data.CloneEmpty()
	if _, err := m.RMSE(empty); err == nil {
		t.Fatal("RMSE over empty matrix accepted")
	}
}

func TestCARTRecoversPiecewiseSignal(t *testing.T) {
	// y is a step function of fx with a categorical offset: a depth-2
	// tree must capture most of the variance.
	db := relation.NewDatabase()
	fact := db.NewRelation("Fact", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "fx", Type: relation.Double},
		{Name: "y", Type: relation.Double},
	})
	dim := db.NewRelation("Dim0", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "d0g", Type: relation.Category},
	})
	src := xrand.New(5)
	for i := 0; i < 10; i++ {
		dim.AppendRow(relation.CatVal(int32(i)), relation.CatVal(int32(i%2)))
	}
	for r := 0; r < 1500; r++ {
		k := src.Intn(10)
		fx := src.Float64()
		y := 0.0
		if fx >= 0.5 {
			y = 4
		}
		if k%2 == 1 {
			y += 10
		}
		y += 0.01 * (src.Float64() - 0.5)
		fact.AppendRow(relation.CatVal(int32(k)), relation.FloatVal(fx), relation.FloatVal(y))
	}
	j := query.NewJoin(fact, dim)
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := TrainCART(jt, TreeConfig{
		Features:   []core.Feature{{Attr: "fx"}, {Attr: "d0g", Categorical: true}},
		Response:   "y",
		Thresholds: map[string][]float64{"fx": {0.25, 0.5, 0.75}},
		MaxDepth:   2,
		MinRows:    10,
		Opts:       core.Optimized(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := engine.MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := tree.RMSE(data)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.5 {
		t.Fatalf("depth-2 CART RMSE %v on a two-split signal (std ~5)", rmse)
	}
	if tree.Depth() > 2 {
		t.Fatalf("tree depth %d exceeds MaxDepth 2", tree.Depth())
	}
	if tree.Root.Leaf {
		t.Fatal("tree did not split at all")
	}
}

func TestCARTStopsOnMinRows(t *testing.T) {
	_, j := regressionStar(6, 30)
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := TrainCART(jt, TreeConfig{
		Features:   []core.Feature{{Attr: "fx"}},
		Response:   "y",
		Thresholds: map[string][]float64{"fx": {0}},
		MaxDepth:   10,
		MinRows:    1e9, // nothing may split
		Opts:       core.Optimized(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf {
		t.Fatal("MinRows did not stop splitting")
	}
}

func TestKMeansSeparatedClusters(t *testing.T) {
	src := xrand.New(7)
	var pts []WPoint
	centersTruth := [][]float64{{0, 0}, {10, 10}, {-10, 5}}
	for i := 0; i < 300; i++ {
		c := centersTruth[i%3]
		pts = append(pts, WPoint{
			X: []float64{c[0] + src.NormFloat64()*0.1, c[1] + src.NormFloat64()*0.1},
			W: 1 + src.Float64(),
		})
	}
	centers, obj, err := KMeans(pts, 3, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 3 {
		t.Fatalf("got %d centers", len(centers))
	}
	// Every true center must be close to some found center.
	for _, truth := range centersTruth {
		best := math.Inf(1)
		for _, c := range centers {
			if d := dist2(truth, c); d < best {
				best = d
			}
		}
		if best > 1 {
			t.Fatalf("true center %v not recovered (closest d² = %v)", truth, best)
		}
	}
	totalW := 0.0
	for _, p := range pts {
		totalW += p.W
	}
	if obj > totalW*0.1 {
		t.Fatalf("objective %v too high for separated clusters", obj)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	src := xrand.New(8)
	var pts []WPoint
	for i := 0; i < 100; i++ {
		pts = append(pts, WPoint{X: []float64{src.Float64(), src.Float64()}, W: 1})
	}
	c1, o1, _ := KMeans(pts, 4, 20, 9)
	c2, o2, _ := KMeans(pts, 4, 20, 9)
	if o1 != o2 {
		t.Fatalf("same seed, different objectives: %v vs %v", o1, o2)
	}
	for i := range c1 {
		for d := range c1[i] {
			if c1[i][d] != c2[i][d] {
				t.Fatal("same seed, different centers")
			}
		}
	}
	if _, _, err := KMeans(nil, 3, 10, 1); err == nil {
		t.Fatal("empty point set accepted")
	}
}

func TestCoresetFromAggregates(t *testing.T) {
	// The Rk-means guarantee needs the grid to quantize the feature
	// space: build a star where the dimension carries a "cell" attribute
	// whose cells are tight in (d0x, d1x) space.
	db := relation.NewDatabase()
	fact := db.NewRelation("Fact", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "y", Type: relation.Double},
	})
	dim := db.NewRelation("Dim0", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "cell", Type: relation.Category},
		{Name: "d0x", Type: relation.Double},
		{Name: "d1x", Type: relation.Double},
	})
	src := xrand.New(9)
	const nDim, nCells = 200, 40
	for i := 0; i < nDim; i++ {
		cell := int32(i % nCells)
		cx := float64(cell%8) * 2
		cy := float64(cell/8) * 2
		dim.AppendRow(
			relation.CatVal(int32(i)),
			relation.CatVal(cell),
			relation.FloatVal(cx+0.05*src.NormFloat64()),
			relation.FloatVal(cy+0.05*src.NormFloat64()),
		)
	}
	for r := 0; r < 3000; r++ {
		fact.AppendRow(relation.CatVal(int32(src.Intn(nDim))), relation.FloatVal(0))
	}
	j := query.NewJoin(fact, dim)
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	dims := []string{"d0x", "d1x"}
	plan, err := core.Compile(jt, core.KMeansBatch(dims, "cell"), core.Optimized(2))
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	coreset, err := BuildCoreset(dims, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(coreset) == 0 || len(coreset) > nCells {
		t.Fatalf("coreset has %d cells, grid has %d categories", len(coreset), nCells)
	}
	// Total weight equals the join size.
	data, err := engine.MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	w := 0.0
	for _, p := range coreset {
		w += p.W
	}
	if int(w+0.5) != data.NumRows() {
		t.Fatalf("coreset weight %v, join size %d", w, data.NumRows())
	}
	// Centers found on the coreset must cost, on the full data, within a
	// small constant of clustering the full data directly.
	centers, _, err := KMeans(coreset, 4, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]WPoint, data.NumRows())
	xc, yc := data.AttrIndex("d0x"), data.AttrIndex("d1x")
	for i := range full {
		full[i] = WPoint{X: []float64{data.Float(xc, i), data.Float(yc, i)}, W: 1}
	}
	_, fullObj, err := KMeans(full, 4, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	coresetOnFull := Objective(full, centers)
	if coresetOnFull > 2*fullObj+1e-9 {
		t.Fatalf("coreset centers cost %v on full data, direct clustering %v", coresetOnFull, fullObj)
	}
}

func TestMutualInfoAndChowLiu(t *testing.T) {
	// Chain dependency: g0 → g1 (deterministic copy), g2 independent.
	db := relation.NewDatabase()
	fact := db.NewRelation("Fact", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "g2", Type: relation.Category},
	})
	dim := db.NewRelation("Dim0", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "g0", Type: relation.Category},
		{Name: "g1", Type: relation.Category},
	})
	src := xrand.New(10)
	for i := 0; i < 12; i++ {
		g0 := int32(i % 4)
		dim.AppendRow(relation.CatVal(int32(i)), relation.CatVal(g0), relation.CatVal(g0)) // g1 = g0
	}
	for r := 0; r < 2000; r++ {
		fact.AppendRow(relation.CatVal(int32(src.Intn(12))), relation.CatVal(int32(src.Intn(3))))
	}
	j := query.NewJoin(fact, dim)
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"g0", "g1", "g2"}
	plan, err := core.Compile(jt, core.MutualInfoBatch(cats), core.Optimized(2))
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	mi, err := MutualInfo(cats, results)
	if err != nil {
		t.Fatal(err)
	}
	// I(g0;g1) = H(g0) ≈ log 4; I(g0;g2) ≈ 0.
	if mi[0][1] < 1.0 {
		t.Fatalf("I(g0;g1) = %v, want ≈ log4 ≈ 1.39", mi[0][1])
	}
	if mi[0][2] > 0.05 {
		t.Fatalf("I(g0;g2) = %v, want ≈ 0", mi[0][2])
	}
	edges := ChowLiu(mi)
	if len(edges) != 2 {
		t.Fatalf("Chow-Liu tree has %d edges, want 2", len(edges))
	}
	// The strongest edge must be g0–g1.
	top := edges[0]
	if !(top.A == 0 && top.B == 1 || top.A == 1 && top.B == 0) {
		t.Fatalf("strongest edge is %v, want g0-g1", top)
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Build a star whose features are strongly correlated along (1,1).
	db := relation.NewDatabase()
	fact := db.NewRelation("Fact", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "a", Type: relation.Double},
		{Name: "b", Type: relation.Double},
		{Name: "y", Type: relation.Double},
	})
	dim := db.NewRelation("Dim0", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
	})
	src := xrand.New(12)
	for i := 0; i < 5; i++ {
		dim.AppendRow(relation.CatVal(int32(i)))
	}
	for r := 0; r < 1000; r++ {
		tv := src.NormFloat64() * 3
		fact.AppendRow(
			relation.CatVal(int32(src.Intn(5))),
			relation.FloatVal(tv+0.05*src.NormFloat64()),
			relation.FloatVal(tv+0.05*src.NormFloat64()),
			relation.FloatVal(0),
		)
	}
	j := query.NewJoin(fact, dim)
	sigma, _ := sigmaFor(t, j, []string{"a", "b"}, nil, "y")
	comps, eigs, err := PCA(sigma, 2, 300, 13)
	if err != nil {
		t.Fatal(err)
	}
	// First component ≈ (±1/√2, ±1/√2); its eigenvalue dominates.
	c0 := comps[0]
	if math.Abs(math.Abs(c0[0])-math.Sqrt(0.5)) > 0.05 || math.Abs(math.Abs(c0[1])-math.Sqrt(0.5)) > 0.05 {
		t.Fatalf("first component %v, want ±(0.707, 0.707)", c0)
	}
	if eigs[0] < 10*eigs[1] {
		t.Fatalf("eigenvalues %v not dominated by first component", eigs)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := [][]float64{{0, 0}, {0, 0}}
	if _, err := choleskySolve(a, []float64{1, 1}); err == nil {
		t.Fatal("singular system accepted")
	}
}
