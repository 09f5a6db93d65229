package core

import (
	"fmt"
	"testing"

	"borg/internal/engine"
	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/testdb"
)

// allOptionCombos enumerates the 2×2×2 configuration space of Figure 6.
func allOptionCombos() []Options {
	var out []Options
	for _, spec := range []bool{false, true} {
		for _, share := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				out = append(out, Options{Specialize: spec, Share: share, Runtime: exec.Runtime{Workers: workers}})
			}
		}
	}
	return out
}

func optName(o Options) string {
	return fmt.Sprintf("spec=%v_share=%v_w=%d", o.Specialize, o.Share, o.Runtime.Workers)
}

// evalBoth runs the batch through LMFAO (with the given options) and the
// classical materialize-then-scan engine, and asserts equal results.
func evalBoth(t *testing.T, j *query.Join, root string, specs []query.AggSpec, opts Options) {
	t.Helper()
	jt, err := j.BuildJoinTree(root)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(jt, specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.MaterializeAndEval(j, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !got[i].ApproxEqual(want[i], 1e-9) {
			t.Fatalf("aggregate %s (%s): LMFAO %+v != engine %+v",
				specs[i].ID, specs[i].String(), got[i], want[i])
		}
	}
}

func TestFigure7CountAndSum(t *testing.T) {
	// The worked example of Figure 9: COUNT = 12 and
	// SUM(price) GROUP BY dish = {burger: 20, hotdog: 16}.
	_, j := testdb.Figure7()
	jt, err := j.BuildJoinTree("Orders")
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.AggSpec{
		{ID: "count"},
		{ID: "p_by_dish", GroupBy: []string{"dish"}, Factors: []query.Factor{{Attr: "price", Power: 1}}},
		{ID: "sum_price", Factors: []query.Factor{{Attr: "price", Power: 1}}},
	}
	plan, err := Compile(jt, specs, Optimized(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Scalar != 12 {
		t.Fatalf("COUNT = %v, want 12 (Figure 9 left)", res[0].Scalar)
	}
	dishes := j.Relations[0].ColByName("dish").Dict
	cb, _ := dishes.Lookup("burger")
	ch, _ := dishes.Lookup("hotdog")
	if res[1].Groups[query.MakeGroupKey(cb)] != 20 || res[1].Groups[query.MakeGroupKey(ch)] != 16 {
		t.Fatalf("SUM(price) GROUP BY dish = %v, want burger:20 hotdog:16 (Figure 9 right)", res[1].Groups)
	}
	if res[2].Scalar != 36 {
		t.Fatalf("SUM(price) = %v, want 36 (Figure 10: 20·f(burger)+16·f(hotdog) with f≡1)", res[2].Scalar)
	}
}

func TestEquivalenceAllConfigs(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 3, FactRows: 800, DimRows: []int{25, 12, 6}})
	var features []Feature
	for _, c := range cont[2:] { // dimension continuous attrs
		features = append(features, Feature{Attr: c})
	}
	features = append(features, Feature{Attr: "fx"})
	for _, g := range cat {
		features = append(features, Feature{Attr: g, Categorical: true})
	}
	specs := CovarianceBatch(features, "fy")
	for _, opts := range allOptionCombos() {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			evalBoth(t, j, "Fact", specs, opts)
		})
	}
}

func TestEquivalenceWithDanglingTuples(t *testing.T) {
	_, j, _, cat := testdb.RandomStar(testdb.StarSpec{Seed: 4, FactRows: 600, DimRows: []int{15, 9}, DanglingDims: true})
	specs := []query.AggSpec{
		{ID: "n"},
		{ID: "sfx", Factors: []query.Factor{{Attr: "fx", Power: 1}}},
		{ID: "cg", GroupBy: cat},
		{ID: "mix", GroupBy: []string{cat[0]}, Factors: []query.Factor{{Attr: "d1x", Power: 1}}},
	}
	evalBoth(t, j, "Fact", specs, Optimized(2))
}

func TestEquivalenceSnowflake(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 5, FactRows: 500, DimRows: []int{12, 8}, Snowflake: true})
	var features []Feature
	for _, c := range cont {
		if c == "fy" {
			continue
		}
		features = append(features, Feature{Attr: c})
	}
	for _, g := range cat {
		features = append(features, Feature{Attr: g, Categorical: true})
	}
	specs := CovarianceBatch(features, "fy")
	for _, opts := range []Options{{}, Optimized(2)} {
		evalBoth(t, j, "Fact", specs, opts)
	}
}

func TestEquivalenceDecisionNodeBatch(t *testing.T) {
	_, j, _, cat := testdb.RandomStar(testdb.StarSpec{Seed: 6, FactRows: 700, DimRows: []int{20, 10}})
	features := []Feature{
		{Attr: "fx"}, {Attr: "d0x"}, {Attr: "d1x"},
		{Attr: cat[0], Categorical: true}, {Attr: cat[1], Categorical: true},
	}
	thresholds := map[string][]float64{
		"fx":  {2, 5, 8},
		"d0x": {-1, 0, 1},
		"d1x": {0},
	}
	specs := DecisionNodeBatch(features, "fy", thresholds)
	evalBoth(t, j, "Fact", specs, Optimized(2))
	evalBoth(t, j, "Fact", specs, Options{})
}

func TestEquivalenceMutualInfoBatch(t *testing.T) {
	_, j, _, cat := testdb.RandomStar(testdb.StarSpec{Seed: 7, FactRows: 400, DimRows: []int{10, 10, 10}})
	specs := MutualInfoBatch(cat)
	evalBoth(t, j, "Fact", specs, Optimized(2))
}

func TestEquivalenceKMeansBatch(t *testing.T) {
	_, j, _, cat := testdb.RandomStar(testdb.StarSpec{Seed: 8, FactRows: 400, DimRows: []int{10, 10}})
	specs := KMeansBatch([]string{"d0x", "d1x", "fx"}, cat[0])
	evalBoth(t, j, "Fact", specs, Optimized(2))
}

func TestEquivalenceDifferentRoots(t *testing.T) {
	_, j, _, cat := testdb.RandomStar(testdb.StarSpec{Seed: 9, FactRows: 300, DimRows: []int{8, 5}})
	specs := []query.AggSpec{
		{ID: "n"},
		{ID: "q", Factors: []query.Factor{{Attr: "d0x", Power: 1}, {Attr: "d1x", Power: 1}}},
		{ID: "g", GroupBy: []string{cat[1], cat[0]}}, // spec order ≠ canonical order
	}
	for _, root := range []string{"Fact", "Dim0", "Dim1"} {
		evalBoth(t, j, root, specs, Optimized(1))
	}
}

func TestSharingReducesSlots(t *testing.T) {
	_, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: 10, FactRows: 100, DimRows: []int{10, 10}})
	features := []Feature{{Attr: "fx"}, {Attr: "d0x"}, {Attr: "d1x"}}
	specs := CovarianceBatch(features, "fy")
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Compile(jt, specs, Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	private, err := Compile(jt, specs, Options{Share: false})
	if err != nil {
		t.Fatal(err)
	}
	if shared.SlotCount() >= private.SlotCount() {
		t.Fatalf("sharing did not reduce slots: shared=%d private=%d", shared.SlotCount(), private.SlotCount())
	}
	// Every aggregate that does not touch Dim1 shares its count slot
	// there; with 15 aggregates the private plan has at least one slot
	// per aggregate per node.
	if private.SlotCount() < len(specs) {
		t.Fatalf("private plan has %d slots for %d aggregates", private.SlotCount(), len(specs))
	}
	counts := shared.NodeSlotCounts()
	if counts["Fact"] == 0 || counts["Dim0"] == 0 {
		t.Fatalf("NodeSlotCounts missing nodes: %v", counts)
	}
}

func TestCompileRejectsInvalidSpec(t *testing.T) {
	_, j := testdb.Figure7()
	jt, err := j.BuildJoinTree("Orders")
	if err != nil {
		t.Fatal(err)
	}
	bad := []query.AggSpec{{ID: "b", Factors: []query.Factor{{Attr: "ghost", Power: 1}}}}
	if _, err := Compile(jt, bad, Optimized(1)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestEmptyFactTable(t *testing.T) {
	_, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: 11, FactRows: 0, DimRows: []int{5}})
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.AggSpec{{ID: "n"}, {ID: "g", GroupBy: []string{"d0g"}}}
	plan, err := Compile(jt, specs, Optimized(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Scalar != 0 {
		t.Fatalf("count over empty join = %v", res[0].Scalar)
	}
	if len(res[1].Groups) != 0 {
		t.Fatalf("grouped aggregate over empty join = %v", res[1].Groups)
	}
}

func TestPlanReusableAfterDataChange(t *testing.T) {
	// IVM-adjacent property: recompiling is not needed when data grows,
	// because plans read the relations at Eval time.
	db, j, _, _ := testdb.RandomStar(testdb.StarSpec{Seed: 12, FactRows: 100, DimRows: []int{10}})
	jt, err := j.BuildJoinTree("Fact")
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.AggSpec{{ID: "n"}}
	plan, err := Compile(jt, specs, Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := plan.Eval()
	fact := db.Relation("Fact")
	row := fact.Grow(1)
	fact.Col(0).C[row] = 0 // key 0 exists in Dim0
	after, _ := plan.Eval()
	if after[0].Scalar != before[0].Scalar+1 {
		t.Fatalf("count after insert = %v, before = %v", after[0].Scalar, before[0].Scalar)
	}
}

func TestBatchSizes(t *testing.T) {
	features := []Feature{
		{Attr: "a"}, {Attr: "b"}, // continuous
		{Attr: "g", Categorical: true}, {Attr: "h", Categorical: true},
	}
	// Covariance over c=3 continuous (incl. response) and k=2 categorical:
	// 1 + [c + c + C(c,2)] + [k + C(k,2) + k*c] = 1 + 3+3+3 + 2+1+6 = 19.
	if got := len(CovarianceBatch(features, "y")); got != 19 {
		t.Fatalf("covariance batch size = %d, want 19", got)
	}
	// Decision node: 3 totals + 3 per categorical (2) + 3 per threshold (3).
	specs := DecisionNodeBatch(features, "y", map[string][]float64{"a": {1, 2}, "b": {0}})
	if len(specs) != 3+3*2+3*3 {
		t.Fatalf("decision node batch size = %d, want %d", len(specs), 3+3*2+3*3)
	}
	// Mutual information over k=3: 1 + 3 + C(3,2) = 7.
	if got := len(MutualInfoBatch([]string{"g", "h", "i"})); got != 7 {
		t.Fatalf("mutual info batch size = %d, want 7", got)
	}
	// k-means over 3 dims: count + cells + 2 per dim = 8.
	km := KMeansBatch([]string{"a", "b", "c"}, "g")
	if len(km) != 8 {
		t.Fatalf("k-means batch size = %d, want 8", len(km))
	}
	// And all strings are unique IDs.
	seen := map[string]bool{}
	for _, s := range CovarianceBatch(features, "y") {
		if seen[s.ID] {
			t.Fatalf("duplicate aggregate id %s", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestSpecStringsStable(t *testing.T) {
	specs := CovarianceBatch([]Feature{{Attr: "x"}, {Attr: "g", Categorical: true}}, "y")
	for i := range specs {
		if specs[i].String() == "" {
			t.Fatal("empty spec rendering")
		}
	}
}

// SlotCount returns the total number of distinct slots (views' columns)
// across all nodes — the sharing metric reported by the ablation bench.
func (p *Plan) SlotCount() int {
	n := 0
	for _, np := range p.bottomUp {
		n += len(np.slots)
	}
	return n
}

// NodeSlotCounts returns relation name → slot count, for diagnostics.
func (p *Plan) NodeSlotCounts() map[string]int {
	out := make(map[string]int, len(p.bottomUp))
	for _, np := range p.bottomUp {
		out[np.rel.Name] = len(np.slots)
	}
	return out
}
