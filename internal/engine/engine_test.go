package engine

import (
	"testing"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/testdb"
)

func TestMaterializeFigure7(t *testing.T) {
	_, j := testdb.Figure7()
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	// 2 Elise-burger orders × 3 burger items + 2 hotdog orders × 3 items = 12.
	if data.NumRows() != 12 {
		t.Fatalf("join has %d rows, want 12", data.NumRows())
	}
	if data.NumAttrs() != 5 {
		t.Fatalf("join has %d attributes, want 5", data.NumAttrs())
	}
	// Spot-check: total price over the join. Each burger order contributes
	// 6+2+2=10, each hotdog order 2+2+4=8; 2 orders each → 20+16=36.
	res, err := EvalAggregateRT(exec.Serial(), data, &query.AggSpec{ID: "sp", Factors: []query.Factor{{Attr: "price", Power: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar != 36 {
		t.Fatalf("SUM(price) = %v, want 36", res.Scalar)
	}
}

func TestMaterializeSingleRelationCopies(t *testing.T) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{{Name: "x", Type: relation.Double}})
	r.AppendRow(relation.FloatVal(1))
	out, err := MaterializeJoin(query.NewJoin(r))
	if err != nil {
		t.Fatal(err)
	}
	out.Col(0).F[0] = 99
	if r.Float(0, 0) == 99 {
		t.Fatal("single-relation materialization aliases the input")
	}
}

func TestMaterializeEmptyJoinErrors(t *testing.T) {
	if _, err := MaterializeJoin(query.NewJoin()); err == nil {
		t.Fatal("empty join accepted")
	}
}

func TestMaterializeRejectsContinuousJoinAttr(t *testing.T) {
	db := relation.NewDatabase()
	a := db.NewRelation("A", []relation.Attribute{{Name: "x", Type: relation.Double}})
	b := db.NewRelation("B", []relation.Attribute{{Name: "x", Type: relation.Double}})
	a.AppendRow(relation.FloatVal(1))
	b.AppendRow(relation.FloatVal(1))
	if _, err := MaterializeJoin(query.NewJoin(a, b)); err == nil {
		t.Fatal("continuous join attribute accepted")
	}
}

func TestDanglingTuplesDropped(t *testing.T) {
	_, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: 1, FactRows: 200, DimRows: []int{10, 7}, DanglingDims: true})
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	if data.NumRows() >= 200 {
		t.Fatalf("expected dangling fact rows to drop, got %d of 200", data.NumRows())
	}
	if data.NumRows() == 0 {
		t.Fatal("join unexpectedly empty")
	}
}

func TestGroupedAggregateOverJoin(t *testing.T) {
	_, j := testdb.Figure7()
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvalAggregateRT(exec.Serial(), data, &query.AggSpec{
		ID:      "p_by_dish",
		GroupBy: []string{"dish"},
		Factors: []query.Factor{{Attr: "price", Power: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dishes := j.Relations[0].ColByName("dish").Dict
	cb, ok1 := dishes.Lookup("burger")
	ch, ok2 := dishes.Lookup("hotdog")
	if !ok1 || !ok2 {
		t.Fatal("dish codes missing from dictionary")
	}
	if res.Groups[query.MakeGroupKey(cb)] != 20 || res.Groups[query.MakeGroupKey(ch)] != 16 {
		t.Fatalf("SUM(price) GROUP BY dish = %v", res.Groups)
	}
}

func TestEvalAggregateUnknownAttr(t *testing.T) {
	_, j := testdb.Figure7()
	data, _ := MaterializeJoin(j)
	bad := []query.AggSpec{
		{ID: "b1", Factors: []query.Factor{{Attr: "ghost", Power: 1}}},
		{ID: "b2", GroupBy: []string{"ghost"}},
		{ID: "b3", Filters: []query.Filter{{Attr: "ghost", Op: query.GE}}},
	}
	for i := range bad {
		if _, err := EvalAggregateRT(exec.Serial(), data, &bad[i]); err == nil {
			t.Errorf("spec %s accepted with unknown attribute", bad[i].ID)
		}
	}
}

func TestFilteredAggregate(t *testing.T) {
	_, j := testdb.Figure7()
	data, _ := MaterializeJoin(j)
	res, err := EvalAggregateRT(exec.Serial(), data, &query.AggSpec{
		ID:      "cnt_expensive",
		Filters: []query.Filter{{Attr: "price", Op: query.GE, Threshold: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// price>=4: patty (6) under 2 burger orders, sausage (4) under 2
	// hotdog orders → 4 rows.
	if res.Scalar != 4 {
		t.Fatalf("filtered count = %v, want 4", res.Scalar)
	}
}

func TestEvalBatchMatchesSingles(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 2, FactRows: 500, DimRows: []int{20, 10}})
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.AggSpec{
		{ID: "n"},
		{ID: "sx", Factors: []query.Factor{{Attr: cont[0], Power: 1}}},
		{ID: "gx", GroupBy: []string{cat[0]}, Factors: []query.Factor{{Attr: cont[2], Power: 1}}},
	}
	batch, err := EvalBatch(data, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		single, err := EvalAggregateRT(exec.Serial(), data, &specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !batch[i].ApproxEqual(single, 1e-12) {
			t.Fatalf("batch result %d differs from single evaluation", i)
		}
	}
}
