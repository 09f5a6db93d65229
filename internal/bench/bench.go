// Package bench regenerates every table and figure of the paper's
// evaluation (README's paper → package map names the package behind
// each). Figures is the one list of them: each entry returns its tables
// in the shape of the corresponding paper artifact, cmd/borg-bench
// prints them, and the root package's BenchmarkFigures times them.
// Absolute numbers reflect the local machine and scale factor; the
// relative shape (who wins, by how much, where crossovers fall) is the
// reproduction target. Performance claims about the system itself are
// measured by benchmarks/e2e, not here.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"borg/internal/agnostic"
	"borg/internal/core"
	"borg/internal/datagen"
	"borg/internal/engine"
	"borg/internal/ivm"
	"borg/internal/ml"
	"borg/internal/plan"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives all data generation; equal seeds reproduce tables
	// modulo wall-clock noise.
	Seed uint64
	// SF scales dataset sizes; 1.0 is the full laptop-scale workload.
	SF float64
	// Workers bounds LMFAO parallelism.
	Workers int
	// Budget caps the per-strategy streaming time of the IVM and
	// planning experiments.
	Budget time.Duration
}

func (o *Options) defaults() {
	if o.SF <= 0 {
		o.SF = 0.2
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Budget <= 0 {
		o.Budget = 3 * time.Second
	}
}

// A Figure is one artifact of the paper's evaluation.
type Figure struct {
	// Name selects the figure (borg-bench -fig).
	Name string
	// Paper is the figure or section of the paper it reproduces; every
	// table title of the figure begins with it.
	Paper string
	run   func(Options) ([]Table, error)
}

// Run regenerates the figure's tables.
func (f Figure) Run(o Options) ([]Table, error) {
	o.defaults()
	return f.run(o)
}

// Figures lists every figure in paper order. The planning figure is the
// repo's own, not the paper's; it comes last and "all" leaves it out.
var Figures = []Figure{
	{"3", "Figure 3", fig3},
	{"4l", "Figure 4 (left)", fig4Left},
	{"4r", "Figure 4 (right)", fig4Right},
	{"5", "Figure 5", fig5},
	{"6", "Figure 6", fig6},
	{"compress", "§1.2", compression},
	{"ifaq", "§5.3, Figure 11", ifaqStages},
	{"ineq", "§2.3", ineqScan},
	{"reuse", "§1.5", reuse},
	{"plan", "Planning", planning},
}

// Lookup returns the figures a name selects: the one figure of that
// Name, or for "all" every paper figure.
func Lookup(name string) ([]Figure, bool) {
	if name == "all" {
		return Figures[:len(Figures)-1], true
	}
	for _, f := range Figures {
		if f.Name == name {
			return []Figure{f}, true
		}
	}
	return nil, false
}

// A Table is one table of a figure; Notes are lines printed under it.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Print renders the table as aligned ASCII.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, n)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
}

// speedup renders how many times faster t is than base.
func speedup(base, t time.Duration) string {
	return fmt.Sprintf("%.1fx", float64(base)/float64(t))
}

func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// lmfaoTime times compiling and evaluating an aggregate batch with LMFAO.
func lmfaoTime(tree *query.JoinTree, specs []query.AggSpec, opts core.Options) (time.Duration, error) {
	return timed(func() error {
		cp, err := core.Compile(tree, specs, opts)
		if err != nil {
			return err
		}
		_, err = cp.Eval()
		return err
	})
}

// csvSize measures the CSV footprint of a relation without keeping it.
func csvSize(r *relation.Relation) int64 {
	var n countingWriter
	_ = r.WriteCSV(&n)
	return int64(n)
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// staticPlan roots the join tree at the dataset's declared fact, the
// tree every batch figure evaluates over.
func staticPlan(d *datagen.Dataset) (*plan.Plan, error) {
	return plan.New(d.Join, plan.Options{PinnedRoot: d.Root, Static: true})
}

// covarSigma evaluates the covariance batch of a dataset with LMFAO and
// assembles its moment matrix.
func covarSigma(d *datagen.Dataset, workers int) (*ml.Sigma, error) {
	p, err := staticPlan(d)
	if err != nil {
		return nil, err
	}
	cp, err := core.Compile(p.Tree, core.CovarianceBatch(d.Features(), d.Response), core.Optimized(workers))
	if err != nil {
		return nil, err
	}
	results, err := cp.Eval()
	if err != nil {
		return nil, err
	}
	return ml.AssembleSigma(d.Cont, d.Cat, d.Response, results)
}

// thresholdsFor derives candidate split points (equi-spaced between the
// observed min and max) for every continuous feature of a dataset.
func thresholdsFor(d *datagen.Dataset, per int) (map[string][]float64, error) {
	out := make(map[string][]float64, len(d.Cont))
	for _, a := range d.Cont {
		lo, hi, err := observedRange(d, a)
		if err != nil {
			return nil, err
		}
		if hi <= lo {
			hi = lo + 1
		}
		var ths []float64
		for i := 1; i <= per; i++ {
			ths = append(ths, lo+(hi-lo)*float64(i)/float64(per+1))
		}
		out[a] = ths
	}
	return out, nil
}

// observedRange is the min and max of attr in the first non-empty
// relation that has it.
func observedRange(d *datagen.Dataset, attr string) (float64, float64, error) {
	found := false
	for _, r := range d.DB.Relations() {
		c := r.AttrIndex(attr)
		if c < 0 {
			continue
		}
		found = true
		if r.NumRows() == 0 {
			continue
		}
		col := r.Col(c).F
		lo, hi := col[0], col[0]
		for _, v := range col {
			lo, hi = min(lo, v), max(hi, v)
		}
		return lo, hi, nil
	}
	if found {
		return 0, 0, fmt.Errorf("bench: %s: every relation with attribute %s is empty", d.Name, attr)
	}
	return 0, 0, fmt.Errorf("bench: %s: no relation has attribute %s", d.Name, attr)
}

// fig3 reproduces the end-to-end comparison of Figure 3: the
// structure-agnostic pipeline (materialize → export → import+shuffle →
// SGD) against the structure-aware path (aggregate batch → gradient
// descent on the covariance matrix) on the Retailer dataset.
func fig3(o Options) ([]Table, error) {
	d := datagen.Retailer(o.Seed, o.SF)

	// Dataset characteristics (the left table of Figure 3).
	chars := Table{Title: "Figure 3 (left): Retailer characteristics",
		Headers: []string{"Relation", "Cardinality", "Attrs", "CSV size"}}
	var totalBytes int64
	for _, r := range d.DB.Relations() {
		b := csvSize(r)
		totalBytes += b
		chars.Rows = append(chars.Rows, []string{r.Name, fmt.Sprintf("%d", r.NumRows()),
			fmt.Sprintf("%d", r.NumAttrs()), fmtBytes(b)})
	}

	// Structure-agnostic pipeline (PostgreSQL+TensorFlow stand-in).
	rep, err := agnostic.RunLinReg(d.Join, agnostic.Config{
		Cont: d.Cont, Cat: d.Cat, Response: d.Response,
		Epochs: 1, Batch: 100, LR: 0.1, Lambda: 1e-3, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}

	// Structure-aware path (LMFAO + GD over the covariance matrix).
	var sigma *ml.Sigma
	aggTime, err := timed(func() (err error) {
		sigma, err = covarSigma(d, o.Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	model := ml.TrainLinRegGD(sigma, 1e-3, 10000, 1e-8)
	gdTime := time.Since(start)
	awareRMSE, err := joinRMSE(d.Join, model)
	if err != nil {
		return nil, err
	}

	// The sufficient-statistics footprint: every scalar of Sigma.
	n := sigma.Size()
	statBytes := int64((n*n + n + 2) * 8)

	agnosticTotal := rep.Total()
	awareTotal := aggTime + gdTime
	return []Table{chars, {
		Title:   "Figure 3 (right): structure-agnostic vs structure-aware",
		Headers: []string{"Stage", "Agnostic time", "Agnostic size", "Aware time", "Aware size"},
		Rows: [][]string{
			{"Join (materialize)", ms(rep.JoinTime), fmt.Sprintf("%d rows / %s", rep.JoinRows, fmtBytes(rep.JoinBytes)), "-", "-"},
			{"Export (CSV)", ms(rep.ExportTime), fmtBytes(rep.JoinBytes), "-", "-"},
			{"Import + shuffle", ms(rep.ImportTime + rep.ShuffleTime), "-", "-", "-"},
			{"SGD (1 epoch)", ms(rep.TrainTime), "-", "-", "-"},
			{"Aggregate batch (LMFAO)", "-", "-", ms(aggTime), fmtBytes(statBytes)},
			{"Grad descent on moments", "-", "-", ms(gdTime), fmt.Sprintf("%d iters", model.Iterations)},
			{"TOTAL", ms(agnosticTotal), fmt.Sprintf("RMSE %.3f", rep.RMSE), ms(awareTotal), fmt.Sprintf("RMSE %.3f", awareRMSE)},
		},
		Notes: []string{
			"Speedup (structure-aware over structure-agnostic): " + speedup(agnosticTotal, awareTotal),
			fmt.Sprintf("Input CSV %s; join CSV %s; sufficient statistics %s",
				fmtBytes(totalBytes), fmtBytes(rep.JoinBytes), fmtBytes(statBytes)),
		},
	}}, nil
}

// joinRMSE scores a model over the materialized join, the matrix the
// agnostic pipeline is scored on (not timed; the paper validates on
// held-out data).
func joinRMSE(j *query.Join, m *ml.LinReg) (float64, error) {
	data, err := engine.MaterializeJoin(j)
	if err != nil {
		return 0, err
	}
	return m.RMSE(data)
}

// fig4Left reproduces the left plot of Figure 4: LMFAO's speedup for
// the covariance batch (C) and the regression-tree-node batch (R) on
// the four datasets, over each of two classical engines that
// materialize the join and then scan it once per aggregate. The
// Volcano interpreter (boxed tuples, one call per operator per row) is
// the paper's PostgreSQL-class baseline; the columnar engine (typed
// columns, tight loops) is the tests' oracle and a much stronger one.
func fig4Left(o Options) ([]Table, error) {
	t := Table{Title: "Figure 4 (left): LMFAO speedup over the Volcano and the columnar classical engine",
		Headers: []string{"Dataset", "Batch", "#Aggregates", "Volcano", "Columnar", "LMFAO", "Speedup over Volcano", "Speedup over columnar"}}
	for _, d := range datagen.All(o.Seed, o.SF) {
		p, err := staticPlan(d)
		if err != nil {
			return nil, err
		}
		ths, err := thresholdsFor(d, 8)
		if err != nil {
			return nil, err
		}
		batches := []struct {
			name  string
			specs []query.AggSpec
		}{
			{"C (covar matrix)", core.CovarianceBatch(d.Features(), d.Response)},
			{"R (tree node)", core.DecisionNodeBatch(d.Features(), d.Response, ths)},
		}
		for _, b := range batches {
			lmfao, err := lmfaoTime(p.Tree, b.specs, core.Optimized(o.Workers))
			if err != nil {
				return nil, err
			}
			volcano, err := timed(func() error { _, err := engine.MaterializeAndEvalVolcano(d.Join, b.specs); return err })
			if err != nil {
				return nil, err
			}
			columnar, err := timed(func() error { _, err := engine.MaterializeAndEval(d.Join, b.specs); return err })
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{d.Name, b.name, fmt.Sprintf("%d", len(b.specs)),
				ms(volcano), ms(columnar), ms(lmfao), speedup(volcano, lmfao), speedup(columnar, lmfao)})
		}
	}
	return []Table{t}, nil
}

// fig4Right reproduces the right plot of Figure 4: throughput of F-IVM,
// higher-order IVM, and first-order IVM maintaining the covariance matrix
// of the continuous features (as in the F-IVM experiment) under a
// shuffled stream of inserts into an initially empty Retailer database.
func fig4Right(o Options) ([]Table, error) {
	d := datagen.Retailer(o.Seed, o.SF)
	stream := insertStream(d, xrand.New(o.Seed))
	mks := []struct {
		name string
		mk   func() (ivm.Maintainer, error)
	}{
		{"F-IVM", func() (ivm.Maintainer, error) { return ivm.NewFIVM(d.Join, d.Root, d.Cont) }},
		{"higher-order IVM", func() (ivm.Maintainer, error) { return ivm.NewHigherOrder(d.Join, d.Root, d.Cont) }},
		{"first-order IVM", func() (ivm.Maintainer, error) { return ivm.NewFirstOrder(d.Join, d.Root, d.Cont) }},
	}
	t := Table{Title: "Figure 4 (right): covariance-matrix maintenance throughput (Retailer stream)",
		Headers: []string{"Strategy", "Inserts", "Time", "Throughput", "Note"}}
	for _, e := range mks {
		m, err := e.mk()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		inserted := 0
		for _, tu := range stream {
			if err := m.Insert(tu); err != nil {
				return nil, err
			}
			inserted++
			if inserted%256 == 0 && time.Since(start) > o.Budget {
				break
			}
		}
		elapsed := time.Since(start)
		note := "full stream"
		if inserted < len(stream) {
			note = fmt.Sprintf("timeout after %d of %d", inserted, len(stream))
		}
		t.Rows = append(t.Rows, []string{e.name, fmt.Sprintf("%d", inserted), ms(elapsed),
			fmt.Sprintf("%.0f tuples/sec", float64(inserted)/elapsed.Seconds()), note})
	}
	return []Table{t}, nil
}

// insertStream flattens a dataset into one insert per row, relation by
// relation in StreamOrder, then shuffles it uniformly unless shuffle is
// nil. Shuffled, dimension and fact tuples interleave throughout, as in
// Figure 4's experiment: a dimension tuple inserted after its (skewed,
// Zipf-heavy) fact partners forces first-order IVM to recompute a delta
// join over the whole matching fanout, while the view-based strategies
// answer from materialized state. Unshuffled, a relation that outgrows
// the declared root arrives after it, as the planning figure needs.
func insertStream(d *datagen.Dataset, shuffle *xrand.Source) []ivm.Tuple {
	var out []ivm.Tuple
	for _, name := range d.StreamOrder {
		r := d.DB.Relation(name)
		for i := 0; i < r.NumRows(); i++ {
			out = append(out, ivm.Tuple{Rel: name, Values: r.Row(i)})
		}
	}
	if shuffle != nil {
		shuffle.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}
