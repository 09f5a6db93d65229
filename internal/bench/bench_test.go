package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps smoke runs fast.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Out: buf, Seed: 1, SF: 0.02, Workers: 2, Budget: 300 * time.Millisecond}
}

func TestFig3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Inventory", "Aggregate batch", "Speedup", "RMSE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4LeftRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4Left(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Retailer", "Favorita", "Yelp", "TPC-DS", "C (covar matrix)", "R (tree node)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig4Left output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4RightRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4Right(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"F-IVM", "higher-order IVM", "first-order IVM", "tuples/sec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig4Right output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Deterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Fig5(tinyOptions(&a)); err != nil {
		t.Fatal(err)
	}
	if err := Fig5(tinyOptions(&b)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Fig5 output not deterministic")
	}
	if !strings.Contains(a.String(), "Covar. matrix") {
		t.Fatalf("Fig5 output malformed:\n%s", a.String())
	}
}

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+parallelization") {
		t.Fatalf("Fig6 output malformed:\n%s", buf.String())
	}
}

func TestCompressionRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Compression(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Factorized join") {
		t.Fatalf("Compression output malformed:\n%s", buf.String())
	}
}

func TestIFAQStagesRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := IFAQStages(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"naive", "+pushdown+fusion", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("IFAQ output missing %q:\n%s", want, out)
		}
	}
}

func TestIneqRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Ineq(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Avg fanout") {
		t.Fatalf("Ineq output malformed:\n%s", buf.String())
	}
}

func TestReuseRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Reuse(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "subset models") {
		t.Fatalf("Reuse output malformed:\n%s", buf.String())
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	printTable(&buf, "T", []string{"a", "longheader"}, [][]string{{"xxxxxx", "y"}})
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "xxxxxx") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

// TestPlanBenchRuns reproduces the planning figure's shape on the
// SkewFlip stream: with a budget that never caps it, every mode ingests
// the whole stream, the static plan keeps the declared root, and both
// planner-driven modes end at the relation that outgrew it. Throughput
// is not asserted.
func TestPlanBenchRuns(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Budget = 5 * time.Second
	rep, err := PlanBench(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamLen != 2408 {
		t.Fatalf("stream has %d ops, want 2408", rep.StreamLen)
	}
	wantRoot := map[string]string{"static": "Sales", "greedy": "PriceLog", "replanned": "PriceLog"}
	if len(rep.Cells) != len(wantRoot) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(wantRoot))
	}
	for _, c := range rep.Cells {
		if c.Inserts != uint64(rep.StreamLen) {
			t.Errorf("%s ingested %d of %d ops", c.Mode, c.Inserts, rep.StreamLen)
		}
		if c.Root != wantRoot[c.Mode] {
			t.Errorf("%s ends at root %q, want %q", c.Mode, c.Root, wantRoot[c.Mode])
		}
		if c.Mode == "replanned" && c.Replans != 1 {
			t.Errorf("replanned reports %d replans, want 1", c.Replans)
		}
	}
}
