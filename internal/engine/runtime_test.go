package engine

import (
	"math"
	"testing"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/testdb"
)

// TestEvalBatchRTBitIdenticalAcrossWorkers: the classical engine's
// aggregate scans, run through the exec runtime at Workers 2 and 8 with
// a pinned MorselSize, must be byte-identical to the serial scan — the
// same determinism contract the LMFAO engine is held to.
func TestEvalBatchRTBitIdenticalAcrossWorkers(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 61, FactRows: 1200, DimRows: []int{20, 10}})
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.AggSpec{
		{ID: "n"},
		{ID: "s", Factors: []query.Factor{{Attr: cont[0], Power: 1}}},
		{ID: "q", Factors: []query.Factor{{Attr: cont[0], Power: 1}, {Attr: cont[1], Power: 1}}},
		{ID: "g1", GroupBy: cat[:1], Factors: []query.Factor{{Attr: cont[0], Power: 1}}},
		{ID: "g2", GroupBy: cat[:2]},
		{ID: "f", Filters: []query.Filter{{Attr: cont[0], Op: query.GE, Threshold: 0}}},
	}
	ref, err := EvalBatchRT(exec.Runtime{Workers: 1, MorselSize: 97}, data, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := EvalBatchRT(exec.Runtime{Workers: w, MorselSize: 97}, data, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if math.Float64bits(got[i].Scalar) != math.Float64bits(ref[i].Scalar) {
				t.Fatalf("workers=%d: %s scalar diverged", w, specs[i].ID)
			}
			if len(got[i].Groups) != len(ref[i].Groups) {
				t.Fatalf("workers=%d: %s group count diverged", w, specs[i].ID)
			}
			for k, v := range ref[i].Groups {
				if math.Float64bits(got[i].Groups[k]) != math.Float64bits(v) {
					t.Fatalf("workers=%d: %s group %v diverged", w, specs[i].ID, k)
				}
			}
		}
	}
}

// TestEvalAggregateRTEmptyRelation: grouped results stay non-nil over
// an empty data matrix for every group-by width, including the wide-key
// path beyond two attributes.
func TestEvalAggregateRTEmptyRelation(t *testing.T) {
	_, j, _, cat := testdb.RandomStar(testdb.StarSpec{Seed: 62, FactRows: 0, DimRows: []int{3, 3, 3}})
	data, err := MaterializeJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	if data.NumRows() != 0 {
		t.Fatalf("expected empty join, got %d rows", data.NumRows())
	}
	for width := 1; width <= len(cat); width++ {
		spec := query.AggSpec{ID: "g", GroupBy: cat[:width]}
		res, err := EvalAggregateRT(exec.Runtime{Workers: 4}, data, &spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.IsScalar() {
			t.Fatalf("width %d: grouped aggregate over empty relation reports IsScalar", width)
		}
		if len(res.Groups) != 0 {
			t.Fatalf("width %d: %d groups over empty relation", width, len(res.Groups))
		}
	}
}
