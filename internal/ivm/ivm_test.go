package ivm

import (
	"math"
	"strings"
	"testing"

	"borg/internal/engine"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/testdb"
	"borg/internal/xrand"
)

// streamOf flattens a populated database into an interleaved insert
// stream (dimension and fact tuples mixed), deterministically shuffled.
func streamOf(db *relation.Database, seed uint64) []Tuple {
	var out []Tuple
	for _, r := range db.Relations() {
		for i := 0; i < r.NumRows(); i++ {
			out = append(out, Tuple{Rel: r.Name, Values: r.Row(i)})
		}
	}
	src := xrand.New(seed)
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// groundTruth computes count/sums/moments over the full join with the
// classical engine.
func groundTruth(t *testing.T, j *query.Join, features []string) (float64, []float64, [][]float64) {
	t.Helper()
	data, err := engine.MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := engine.EvalAggregate(data, &query.AggSpec{ID: "n"})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, len(features))
	moms := make([][]float64, len(features))
	for i, f := range features {
		r, err := engine.EvalAggregate(data, &query.AggSpec{ID: "s", Factors: []query.Factor{{Attr: f, Power: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = r.Scalar
		moms[i] = make([]float64, len(features))
		for k, g := range features {
			var spec query.AggSpec
			if i == k {
				spec = query.AggSpec{ID: "q", Factors: []query.Factor{{Attr: f, Power: 2}}}
			} else {
				spec = query.AggSpec{ID: "q", Factors: []query.Factor{{Attr: f, Power: 1}, {Attr: g, Power: 1}}}
			}
			rr, err := engine.EvalAggregate(data, &spec)
			if err != nil {
				t.Fatal(err)
			}
			moms[i][k] = rr.Scalar
		}
	}
	return cnt.Scalar, sums, moms
}

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func checkAgainstTruth(t *testing.T, m Maintainer, features []string, cnt float64, sums []float64, moms [][]float64) {
	t.Helper()
	if !approxEq(m.Count(), cnt) {
		t.Fatalf("%s: Count = %v, want %v", m.Name(), m.Count(), cnt)
	}
	for i := range features {
		if !approxEq(m.Sum(i), sums[i]) {
			t.Fatalf("%s: Sum(%d) = %v, want %v", m.Name(), i, m.Sum(i), sums[i])
		}
		for k := range features {
			if !approxEq(m.Moment(i, k), moms[i][k]) {
				t.Fatalf("%s: Moment(%d,%d) = %v, want %v", m.Name(), i, k, m.Moment(i, k), moms[i][k])
			}
		}
	}
}

func maintainers(t *testing.T, j *query.Join, root string, features []string) []Maintainer {
	t.Helper()
	f, err := NewFIVM(j, root, features)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHigherOrder(j, root, features)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := NewFirstOrder(j, root, features)
	if err != nil {
		t.Fatal(err)
	}
	return []Maintainer{f, h, fo}
}

func TestAllStrategiesMatchBatchRecompute(t *testing.T) {
	db, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 31, FactRows: 400, DimRows: []int{15, 8}})
	features := cont // fx, fy, d0x, d1x
	stream := streamOf(db, 99)
	ms := maintainers(t, j, "Fact", features)
	for _, m := range ms {
		for _, tu := range stream {
			if err := m.Insert(tu); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
		}
	}
	cnt, sums, moms := groundTruth(t, j, features)
	if cnt == 0 {
		t.Fatal("degenerate test: empty join")
	}
	for _, m := range ms {
		checkAgainstTruth(t, m, features, cnt, sums, moms)
	}
}

func TestStrategiesAgreeMidStream(t *testing.T) {
	// Equivalence must hold at every prefix, not only at the end.
	db, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 32, FactRows: 120, DimRows: []int{6, 4}})
	stream := streamOf(db, 7)
	ms := maintainers(t, j, "Fact", cont)
	for step, tu := range stream {
		for _, m := range ms {
			if err := m.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
		f := ms[0]
		for _, m := range ms[1:] {
			if !approxEq(f.Count(), m.Count()) {
				t.Fatalf("step %d: %s count %v != F-IVM %v", step, m.Name(), m.Count(), f.Count())
			}
			for i := range cont {
				if !approxEq(f.Sum(i), m.Sum(i)) {
					t.Fatalf("step %d: %s sum(%d) diverged", step, m.Name(), i)
				}
			}
			if !approxEq(f.Moment(0, 1), m.Moment(0, 1)) {
				t.Fatalf("step %d: %s moment(0,1) diverged", step, m.Name())
			}
		}
	}
}

func TestSnowflakeMaintenance(t *testing.T) {
	db, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 33, FactRows: 200, DimRows: []int{8, 5}, Snowflake: true})
	features := cont
	stream := streamOf(db, 13)
	ms := maintainers(t, j, "Fact", features)
	for _, m := range ms {
		for _, tu := range stream {
			if err := m.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	cnt, sums, moms := groundTruth(t, j, features)
	for _, m := range ms {
		checkAgainstTruth(t, m, features, cnt, sums, moms)
	}
}

func TestDanglingInsertsContributeNothing(t *testing.T) {
	_, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 34, FactRows: 10, DimRows: []int{3}})
	m, err := NewFIVM(j, "Fact", cont)
	if err != nil {
		t.Fatal(err)
	}
	// Insert fact tuples pointing at a key no dimension tuple will have.
	fact := j.Relations[0]
	row := make([]relation.Value, fact.NumAttrs())
	row[0] = relation.CatVal(999)
	row[1] = relation.FloatVal(5)
	row[2] = relation.FloatVal(7)
	for i := 0; i < 3; i++ {
		if err := m.Insert(Tuple{Rel: "Fact", Values: row}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Count() != 0 {
		t.Fatalf("dangling inserts produced count %v", m.Count())
	}
}

func TestLateDimensionArrival(t *testing.T) {
	// Fact tuples first, their dimension partner later: the dimension's
	// delta must retroactively credit the waiting fact tuples.
	_, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 35, FactRows: 0, DimRows: []int{3}})
	ms := maintainers(t, j, "Fact", cont[:2]) // fx, fy
	factRow := func(k int32, fx, fy float64) Tuple {
		return Tuple{Rel: "Fact", Values: []relation.Value{relation.CatVal(k), relation.FloatVal(fx), relation.FloatVal(fy)}}
	}
	dimRow := func(k int32) Tuple {
		return Tuple{Rel: "Dim0", Values: []relation.Value{relation.CatVal(k), relation.FloatVal(1), relation.CatVal(0)}}
	}
	for _, m := range ms {
		if err := m.Insert(factRow(5, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert(factRow(5, 4, 1)); err != nil {
			t.Fatal(err)
		}
		if m.Count() != 0 {
			t.Fatalf("%s: count %v before dimension arrived", m.Name(), m.Count())
		}
		if err := m.Insert(dimRow(5)); err != nil {
			t.Fatal(err)
		}
		if m.Count() != 2 {
			t.Fatalf("%s: count %v after dimension arrived, want 2", m.Name(), m.Count())
		}
		if !approxEq(m.Sum(0), 6) || !approxEq(m.Moment(0, 1), 2*3+4*1) {
			t.Fatalf("%s: stats wrong after late arrival: sum=%v moment=%v", m.Name(), m.Sum(0), m.Moment(0, 1))
		}
		// A second dimension tuple with the same key doubles everything
		// (join multiplicity).
		if err := m.Insert(dimRow(5)); err != nil {
			t.Fatal(err)
		}
		if m.Count() != 4 {
			t.Fatalf("%s: count %v after duplicate dimension, want 4", m.Name(), m.Count())
		}
	}
}

func TestUnknownRelationRejected(t *testing.T) {
	_, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 36, FactRows: 1, DimRows: []int{1}})
	m, err := NewFIVM(j, "Fact", cont)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(Tuple{Rel: "Ghost"}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := m.Insert(Tuple{Rel: "Fact", Values: []relation.Value{{}}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestBadFeatureRejected(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 37, FactRows: 1, DimRows: []int{1}})
	if _, err := NewFIVM(j, "Fact", []string{"ghost"}); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if _, err := NewFIVM(j, "Fact", []string{cat[0]}); err == nil {
		t.Fatal("categorical feature accepted")
	}
	// The scalar strategies maintain the covar payload only, and say
	// which payload they refused.
	for _, p := range []Payload{PayloadPoly2, PayloadCofactor} {
		if _, err := NewHigherOrder(j, "Fact", cont, WithPayload(p)); err == nil || !strings.Contains(err.Error(), p.String()) {
			t.Fatalf("higher-order with payload %s: err %v", p, err)
		}
		if _, err := NewFirstOrder(j, "Fact", cont, WithPayload(p)); err == nil || !strings.Contains(err.Error(), p.String()) {
			t.Fatalf("first-order with payload %s: err %v", p, err)
		}
	}
}

func TestAggIndexLayout(t *testing.T) {
	ix := newAggIndex(3)
	seen := map[int]bool{ix.count(): true}
	for i := 0; i < 3; i++ {
		p := ix.sum(i)
		if seen[p] {
			t.Fatalf("sum(%d) collides at %d", i, p)
		}
		seen[p] = true
	}
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			p := ix.moment(i, j)
			if seen[p] {
				t.Fatalf("moment(%d,%d) collides at %d", i, j, p)
			}
			seen[p] = true
			if ix.moment(j, i) != p {
				t.Fatal("moment not symmetric")
			}
		}
	}
	if len(seen) != len(covarAggs(3)) {
		t.Fatalf("layout covers %d positions, aggs = %d", len(seen), len(covarAggs(3)))
	}
}

func BenchmarkInsertThroughput(b *testing.B) {
	db, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 40, FactRows: 5000, DimRows: []int{100, 50}})
	stream := streamOf(db, 5)
	mk := []func() Maintainer{
		func() Maintainer { m, _ := NewFIVM(j, "Fact", cont); return m },
		func() Maintainer { m, _ := NewHigherOrder(j, "Fact", cont); return m },
		func() Maintainer { m, _ := NewFirstOrder(j, "Fact", cont); return m },
	}
	for _, make := range mk {
		m := make()
		b.Run(m.Name(), func(b *testing.B) {
			m := make()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Insert(stream[i%len(stream)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
