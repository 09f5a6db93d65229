package ineq

import (
	"fmt"
	"math"
	"testing"

	"borg/internal/relation"
	"borg/internal/xrand"
)

// makePair builds R(k, x1, x2) and S(k, y1, y2) with the given sizes and
// key domain; domain > rows of S produces keys with no partners.
func makePair(t *testing.T, seed uint64, nR, nS, domain int) *Pair {
	t.Helper()
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "x1", Type: relation.Double},
		{Name: "x2", Type: relation.Double},
	})
	s := db.NewRelation("S", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "y1", Type: relation.Double},
		{Name: "y2", Type: relation.Double},
	})
	src := xrand.New(seed)
	for i := 0; i < nR; i++ {
		r.AppendRow(relation.CatVal(int32(src.Intn(domain))), relation.FloatVal(src.Float64()*4-2), relation.FloatVal(src.Float64()*4-2))
	}
	for i := 0; i < nS; i++ {
		s.AppendRow(relation.CatVal(int32(src.Intn(domain))), relation.FloatVal(src.Float64()*4-2), relation.FloatVal(src.Float64()*4-2))
	}
	p, err := NewPair(r, s, "k")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func resultsClose(a, b Result) error {
	eq := func(x, y float64) bool { return math.Abs(x-y) <= 1e-7*(1+math.Abs(x)+math.Abs(y)) }
	if !eq(a.Count, b.Count) {
		return fmt.Errorf("count %v != %v", a.Count, b.Count)
	}
	for i := range a.FR {
		if !eq(a.FR[i], b.FR[i]) {
			return fmt.Errorf("FR[%d] %v != %v", i, a.FR[i], b.FR[i])
		}
	}
	for i := range a.GS {
		if !eq(a.GS[i], b.GS[i]) {
			return fmt.Errorf("GS[%d] %v != %v", i, a.GS[i], b.GS[i])
		}
	}
	return nil
}

// weighted returns a RowFunc computing Σ w[i] * fs[i](row).
func weighted(fs []RowFunc, w []float64) RowFunc {
	return func(rel *relation.Relation, row int) float64 {
		v := 0.0
		for i, f := range fs {
			v += w[i] * f(rel, row)
		}
		return v
	}
}

func TestFactorizedMatchesScan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		p := makePair(t, seed, 300, 200, 40)
		x1, _ := Col(p.R, "x1")
		x2, _ := Col(p.R, "x2")
		y1, _ := Col(p.S, "y1")
		y2, _ := Col(p.S, "y2")
		a := weighted([]RowFunc{x1, x2}, []float64{0.7, -1.3})
		b := weighted([]RowFunc{y1, y2}, []float64{2.1, 0.4})
		for _, c := range []float64{-3, -0.5, 0, 0.5, 3} {
			fast := p.Eval(a, b, []RowFunc{x1, x2}, []RowFunc{y1, y2}, c)
			slow := p.EvalScan(a, b, []RowFunc{x1, x2}, []RowFunc{y1, y2}, c)
			if err := resultsClose(fast, slow); err != nil {
				t.Fatalf("seed %d c=%v: %v", seed, c, err)
			}
		}
	}
}

func TestStrictInequalityBoundary(t *testing.T) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "x", Type: relation.Double},
	})
	s := db.NewRelation("S", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "y", Type: relation.Double},
	})
	r.AppendRow(relation.CatVal(0), relation.FloatVal(1))
	s.AppendRow(relation.CatVal(0), relation.FloatVal(1))
	p, err := NewPair(r, s, "k")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := Col(r, "x")
	y, _ := Col(s, "y")
	// a+b = 2: strictly greater comparisons only.
	if got := p.Eval(x, y, nil, nil, 2).Count; got != 0 {
		t.Fatalf("a+b > 2 with a+b == 2 counted %v pairs", got)
	}
	if got := p.Eval(x, y, nil, nil, 1.999).Count; got != 1 {
		t.Fatalf("a+b > 1.999 counted %v pairs, want 1", got)
	}
}

func TestDanglingKeys(t *testing.T) {
	p := makePair(t, 9, 100, 10, 50) // most R keys have no S partner
	x1, _ := Col(p.R, "x1")
	y1, _ := Col(p.S, "y1")
	fast := p.Eval(x1, y1, []RowFunc{x1}, []RowFunc{y1}, -100)
	slow := p.EvalScan(x1, y1, []RowFunc{x1}, []RowFunc{y1}, -100)
	if err := resultsClose(fast, slow); err != nil {
		t.Fatal(err)
	}
	// c = -100 admits every joined pair: count equals the join size.
	join := 0
	for ri := 0; ri < p.R.NumRows(); ri++ {
		join += len(p.sIndex[p.rKey[ri]])
	}
	if int(fast.Count) != join {
		t.Fatalf("permissive threshold counts %v, join size %d", fast.Count, join)
	}
}

func TestNewPairErrors(t *testing.T) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "x", Type: relation.Double},
	})
	s := db.NewRelation("S", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "y", Type: relation.Double},
	})
	if _, err := NewPair(r, s, "ghost"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := NewPair(r, s, "x"); err == nil {
		t.Fatal("continuous key accepted")
	}
	if _, err := Col(r, "ghost"); err == nil {
		t.Fatal("Col accepted unknown attribute")
	}
	if _, err := Col(r, "k"); err == nil {
		t.Fatal("Col accepted categorical attribute")
	}
}

// BenchmarkFactorizedVsScan shows the crossover: with high join fanout the
// factorized algorithm wins by roughly the average fanout.
func BenchmarkFactorizedVsScan(b *testing.B) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "x1", Type: relation.Double},
	})
	s := db.NewRelation("S", []relation.Attribute{
		{Name: "k", Type: relation.Category},
		{Name: "y1", Type: relation.Double},
	})
	src := xrand.New(77)
	const n, domain = 20000, 20 // fanout ≈ 1000
	for i := 0; i < n; i++ {
		r.AppendRow(relation.CatVal(int32(src.Intn(domain))), relation.FloatVal(src.Float64()))
		s.AppendRow(relation.CatVal(int32(src.Intn(domain))), relation.FloatVal(src.Float64()))
	}
	p, err := NewPair(r, s, "k")
	if err != nil {
		b.Fatal(err)
	}
	x1, _ := Col(r, "x1")
	y1, _ := Col(s, "y1")
	b.Run("factorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Eval(x1, y1, []RowFunc{x1}, []RowFunc{y1}, 1.0)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.EvalScan(x1, y1, []RowFunc{x1}, []RowFunc{y1}, 1.0)
		}
	})
}
