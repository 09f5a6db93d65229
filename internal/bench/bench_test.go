package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"borg/internal/datagen"
	"borg/internal/ml"
	"borg/internal/query"
	"borg/internal/relation"
)

// ran memoizes each figure's tables, so a figure runs once per test
// binary however many tests read it.
var ran = map[string][]Table{}

// tables runs the named figure at seed 1 and sf 0.02. The IVM figure's
// budget caps its slowest strategy; the planning figure's never caps its
// stream, so its roots and op counts are exact.
func tables(t *testing.T, name string) []Table {
	t.Helper()
	if ts, ok := ran[name]; ok {
		return ts
	}
	figs, ok := Lookup(name)
	if !ok || len(figs) != 1 {
		t.Fatalf("no figure %q", name)
	}
	o := Options{Seed: 1, SF: 0.02, Workers: 2, Budget: 300 * time.Millisecond}
	if name == "plan" {
		o.Budget = 5 * time.Second
	}
	ts, err := figs[0].Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ran[name] = ts
	return ts
}

// column returns a table's cells under the named header.
func column(t *testing.T, tb Table, header string) []string {
	t.Helper()
	c := slices.Index(tb.Headers, header)
	if c < 0 {
		t.Fatalf("%s: no column %q in %q", tb.Title, header, tb.Headers)
	}
	var out []string
	for _, r := range tb.Rows {
		out = append(out, r[c])
	}
	return out
}

func wantColumn(t *testing.T, tb Table, header string, want ...string) {
	t.Helper()
	if got := column(t, tb, header); !slices.Equal(got, want) {
		t.Errorf("%s, column %q = %q, want %q", tb.Title, header, got, want)
	}
}

var datasets = []string{"Retailer", "Favorita", "Yelp", "TPC-DS"}

// TestFigureRegistry runs every figure of the registry: each returns
// well-formed tables titled by its paper name, and "all" selects every
// figure but the planning one.
func TestFigureRegistry(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			ts := tables(t, f.Name)
			if len(ts) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range ts {
				if !strings.HasPrefix(tb.Title, f.Paper) {
					t.Errorf("title %q does not begin with %q", tb.Title, f.Paper)
				}
				if len(tb.Rows) == 0 {
					t.Errorf("%s: no rows", tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Headers) || slices.Contains(r, "") {
						t.Errorf("%s: row %q does not fill headers %q", tb.Title, r, tb.Headers)
					}
				}
			}
		})
	}
	all, ok := Lookup("all")
	if !ok || len(all) != len(Figures)-1 || slices.ContainsFunc(all, func(f Figure) bool { return f.Name == "plan" }) {
		t.Errorf("all selects %d figures, want every figure but plan", len(all))
	}
	if _, ok := Lookup("7"); ok {
		t.Error("Lookup accepts an unknown figure")
	}
}

func TestFig3Runs(t *testing.T) {
	ts := tables(t, "3")
	wantColumn(t, ts[0], "Relation", "Item", "Stores", "Demographics", "Weather", "Inventory")
	total := ts[1].Rows[len(ts[1].Rows)-1]
	if total[0] != "TOTAL" || !strings.HasPrefix(total[4], "RMSE ") || total[4] == "RMSE 0.000" {
		t.Errorf("structure-aware total %q: want a measured RMSE", total)
	}
	if len(ts[1].Notes) != 2 || !strings.HasPrefix(ts[1].Notes[0], "Speedup") {
		t.Errorf("notes %q", ts[1].Notes)
	}
}

// TestJoinRMSEReturnsErrors: Figure 3 reports the structure-aware RMSE
// or fails; it never prints a stand-in 0.
func TestJoinRMSEReturnsErrors(t *testing.T) {
	d := datagen.Retailer(1, 0.02)
	if _, err := joinRMSE(&query.Join{}, &ml.LinReg{}); err == nil {
		t.Error("an empty join scored without error")
	}
	m := &ml.LinReg{}
	m.Response = "nosuch"
	if _, err := joinRMSE(d.Join, m); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("a model of an absent response scored with error %v", err)
	}
}

// TestFig4LeftRuns: both classical engines are timed, and each batch's
// aggregate count is Figure 5's.
func TestFig4LeftRuns(t *testing.T) {
	left, fig5 := tables(t, "4l")[0], tables(t, "5")[0]
	var labels, counts, want []string
	for i, d := range datasets {
		labels = append(labels, d, d)
		counts = append(counts, "C (covar matrix)", "R (tree node)")
		want = append(want, fig5.Rows[i][1], fig5.Rows[i][2])
	}
	wantColumn(t, left, "Dataset", labels...)
	wantColumn(t, left, "Batch", counts...)
	wantColumn(t, left, "#Aggregates", want...)
	for _, h := range []string{"Volcano", "Columnar", "Speedup over Volcano", "Speedup over columnar"} {
		column(t, left, h)
	}
}

func TestFig4RightRuns(t *testing.T) {
	tb := tables(t, "4r")[0]
	wantColumn(t, tb, "Strategy", "F-IVM", "higher-order IVM", "first-order IVM")
	for _, c := range column(t, tb, "Throughput") {
		if !strings.HasSuffix(c, " tuples/sec") {
			t.Errorf("throughput %q", c)
		}
	}
}

// fig5Counts are Figure 5's aggregate counts per dataset: covariance
// matrix, decision node, mutual information, k-means. They depend on
// the schema only.
var fig5Counts = [][]string{
	{"Retailer", "165", "261", "22", "22"},
	{"Favorita", "72", "117", "22", "10"},
	{"Yelp", "53", "153", "4", "14"},
	{"TPC-DS", "61", "114", "16", "10"},
}

func TestFig5Deterministic(t *testing.T) {
	if got := tables(t, "5")[0].Rows; !slices.EqualFunc(got, fig5Counts, slices.Equal) {
		t.Errorf("Figure 5 at seed 1, sf 0.02 = %q, want %q", got, fig5Counts)
	}
	figs, _ := Lookup("5")
	big, err := figs[0].Run(Options{Seed: 2020, SF: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if got := big[0].Rows; !slices.EqualFunc(got, fig5Counts, slices.Equal) {
		t.Errorf("Figure 5 at seed 2020, sf 0.2 = %q, want %q", got, fig5Counts)
	}
}

func TestFig6Runs(t *testing.T) {
	tb := tables(t, "6")[0]
	wantColumn(t, tb, "Dataset", datasets...)
	column(t, tb, "+parallelization")
}

// TestCompressionRuns pins the factorized sizes at seed 1, sf 0.02:
// input values, flat and factorized join values, shared nodes.
func TestCompressionRuns(t *testing.T) {
	want := [][]string{
		{"Retailer", "14890", "50400 (3.4x input)", "7583 (6.6x smaller than flat)", "66 shared nodes"},
		{"Favorita", "11600", "28000 (2.4x input)", "6480 (4.3x smaller than flat)", "60 shared nodes"},
		{"Yelp", "8650", "22000 (2.5x input)", "5184 (4.2x smaller than flat)", "49 shared nodes"},
		{"TPC-DS", "14964", "33600 (2.2x input)", "9383 (3.6x smaller than flat)", "108 shared nodes"},
	}
	if got := tables(t, "compress")[0].Rows; !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("compression = %q, want %q", got, want)
	}
}

func TestIFAQStagesRuns(t *testing.T) {
	wantColumn(t, tables(t, "ifaq")[0], "Stage", "naive", "high-level-opt", "+specialization", "+pushdown+fusion")
}

func TestIneqRuns(t *testing.T) {
	tb := tables(t, "ineq")[0]
	wantColumn(t, tb, "Key domain", "8192", "1024", "128", "16")
	wantColumn(t, tb, "Avg fanout", "2", "20", "156", "1250")
}

// TestIneqTimesReturnsErrors: a missing inequality column fails the
// figure instead of being timed as a nil function.
func TestIneqTimesReturnsErrors(t *testing.T) {
	db := relation.NewDatabase()
	r := db.NewRelation("R", []relation.Attribute{{Name: "k", Type: relation.Category}, {Name: "x", Type: relation.Double}})
	s := db.NewRelation("S", []relation.Attribute{{Name: "k", Type: relation.Category}, {Name: "z", Type: relation.Double}})
	if _, _, err := ineqTimes(r, s); err == nil || !strings.Contains(err.Error(), "attribute y") {
		t.Errorf("S without y: error %v", err)
	}
	if _, _, err := ineqTimes(s, r); err == nil || !strings.Contains(err.Error(), "attribute x") {
		t.Errorf("R without x: error %v", err)
	}
}

func TestReuseRuns(t *testing.T) {
	wantColumn(t, tables(t, "reuse")[0], "Step", "Aggregate batch (once)", "Train 100 subset models from moments",
		"TOTAL structure-aware", "One SGD data pass (per candidate!)", "TOTAL agnostic (100 candidates)", "Speedup")
}

// TestObservedRangeReturnsErrors: split thresholds come from data, never
// from a made-up range.
func TestObservedRangeReturnsErrors(t *testing.T) {
	d := datagen.Retailer(1, 0.02)
	if _, _, err := observedRange(d, "nosuch"); err == nil || !strings.Contains(err.Error(), "no relation") {
		t.Errorf("absent attribute: error %v", err)
	}
	empty := &datagen.Dataset{Name: "empty", DB: relation.NewDatabase(), Cont: []string{"x"}}
	empty.DB.NewRelation("R", []relation.Attribute{{Name: "x", Type: relation.Double}})
	if _, err := thresholdsFor(empty, 8); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty relation: error %v", err)
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	Table{Title: "T", Headers: []string{"a", "longheader"}, Rows: [][]string{{"xxxxxx", "y"}}, Notes: []string{"n"}}.Print(&buf)
	want := "\n== T ==\na       longheader\n------  ----------\nxxxxxx  y\nn\n"
	if buf.String() != want {
		t.Fatalf("table = %q, want %q", buf.String(), want)
	}
}

// TestPlanBenchRuns reproduces the planning figure's shape on the
// SkewFlip stream: with a budget that never caps it, every mode ingests
// the whole stream, the static plan keeps the declared root, and both
// planner-driven modes end at the relation that outgrew it. Throughput
// is not asserted.
func TestPlanBenchRuns(t *testing.T) {
	tb := tables(t, "plan")[0]
	if !strings.Contains(tb.Title, "(2408 tuples)") {
		t.Errorf("title %q: want a stream of 2408 ops", tb.Title)
	}
	wantColumn(t, tb, "Mode", "static", "greedy", "replanned")
	wantColumn(t, tb, "Root", "Sales", "PriceLog", "PriceLog")
	wantColumn(t, tb, "Ops", "2408", "2408", "2408")
	wantColumn(t, tb, "Note", "full stream", "full stream", "full stream")
	if r := column(t, tb, "Replans")[2]; r != "1" {
		t.Errorf("replanned reports %s replans, want 1", r)
	}
}
