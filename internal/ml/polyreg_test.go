package ml

import (
	"math"
	"testing"

	"borg/internal/core"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// quadStar plants a quadratic signal: y = 1 + 2a − b + 0.5a² − ab.
func quadStar(seed uint64, rows int) *query.Join {
	db := relation.NewDatabase()
	fact := db.NewRelation("Fact", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "a", Type: relation.Double},
		{Name: "y", Type: relation.Double},
	})
	dim := db.NewRelation("Dim0", []relation.Attribute{
		{Name: "k0", Type: relation.Category},
		{Name: "b", Type: relation.Double},
	})
	src := xrand.New(seed)
	const nDim = 25
	bs := make([]float64, nDim)
	for i := 0; i < nDim; i++ {
		bs[i] = src.Float64()*2 - 1
		dim.AppendRow(relation.CatVal(int32(i)), relation.FloatVal(bs[i]))
	}
	for r := 0; r < rows; r++ {
		k := src.Intn(nDim)
		a := src.Float64()*2 - 1
		y := 1 + 2*a - bs[k] + 0.5*a*a - a*bs[k]
		fact.AppendRow(relation.CatVal(int32(k)), relation.FloatVal(a), relation.FloatVal(y))
	}
	return query.NewJoin(fact, dim)
}

func TestPolyRegRecoversQuadraticSignal(t *testing.T) {
	j := quadStar(1, 2000)
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	m, err := PolyRegOverJoin(jt, []string{"a", "b"}, "y", 1e-8, core.Optimized(2))
	if err != nil {
		t.Fatal(err)
	}
	// Check parameters against the planted signal.
	wants := map[string]float64{
		"intercept": 1, "a": 2, "b": -1, "a2": 0.5, "ab": -1, "b2": 0,
	}
	got := map[string]float64{
		"intercept": m.Theta[0],
		"a":         m.Theta[1],
		"b":         m.Theta[2],
		"a2":        m.Theta[pairPos(2, 0, 0)],
		"ab":        m.Theta[pairPos(2, 0, 1)],
		"b2":        m.Theta[pairPos(2, 1, 1)],
	}
	for name, want := range wants {
		if math.Abs(got[name]-want) > 0.02 {
			t.Fatalf("theta[%s] = %v, want %v (all: %v)", name, got[name], want, got)
		}
	}
	// Prediction on a fresh point.
	x := []float64{0.3, -0.7}
	want := 1 + 2*x[0] - x[1] + 0.5*x[0]*x[0] - x[0]*x[1]
	if p := m.PredictVec(x); math.Abs(p-want) > 0.02 {
		t.Fatalf("PredictVec = %v, want %v", p, want)
	}
}

func TestPolyBatchIsValidAndDeduplicated(t *testing.T) {
	j := quadStar(2, 10)
	specs := PolyBatch([]string{"a", "b"}, "y")
	seen := map[string]bool{}
	for i := range specs {
		if seen[specs[i].ID] {
			t.Fatalf("duplicate aggregate %s", specs[i].ID)
		}
		seen[specs[i].ID] = true
		if err := specs[i].Validate(j); err != nil {
			t.Fatalf("invalid spec %s: %v", specs[i].ID, err)
		}
	}
	// Degree ≤ 4 moments over {a, b} plus y-interactions: a meaningful
	// batch is produced (dozens of aggregates, more than plain covar).
	if len(specs) <= len(core.CovarianceBatch([]core.Feature{{Attr: "a"}, {Attr: "b"}}, "y")) {
		t.Fatalf("poly batch (%d) not larger than covariance batch", len(specs))
	}
}

func TestPairPosLayout(t *testing.T) {
	n := 4
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p := pairPos(n, i, j)
			if p < 1+n || p >= expandedDim(n) {
				t.Fatalf("pairPos(%d,%d) = %d out of range", i, j, p)
			}
			if seen[p] {
				t.Fatalf("pairPos collision at %d", p)
			}
			seen[p] = true
			if pairPos(n, j, i) != p {
				t.Fatal("pairPos not symmetric")
			}
		}
	}
}
