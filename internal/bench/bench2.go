package bench

import (
	"fmt"
	"time"

	"borg/internal/core"
	"borg/internal/datagen"
	"borg/internal/engine"
	"borg/internal/exec"
	"borg/internal/factor"
	"borg/internal/ifaq"
	"borg/internal/ineq"
	"borg/internal/ml"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// fig5 reproduces the table of Figure 5: the number of aggregates each
// workload compiles to, per dataset. The counts are deterministic in the
// schema and feature lists.
func fig5(o Options) ([]Table, error) {
	t := Table{Title: "Figure 5: number of aggregates per workload",
		Headers: []string{"Dataset", "Covar. matrix", "Decision node", "Mutual inf.", "k-means"}}
	for _, d := range datagen.All(o.Seed, o.SF) {
		ths, err := thresholdsFor(d, 8)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{d.Name,
			fmt.Sprintf("%d", len(core.CovarianceBatch(d.Features(), d.Response))),
			fmt.Sprintf("%d", len(core.DecisionNodeBatch(d.Features(), d.Response, ths))),
			fmt.Sprintf("%d", len(core.MutualInfoBatch(d.Cat))),
			fmt.Sprintf("%d", len(core.KMeansBatch(d.Cont, d.GridAttr)))})
	}
	return []Table{t}, nil
}

// fig6 reproduces the optimization ablation of Figure 6: the covariance
// batch evaluated with the LMFAO optimizations enabled cumulatively —
// baseline (interpreted, no sharing, sequential), +specialization,
// +sharing, +parallelization — reporting speedup over the baseline.
func fig6(o Options) ([]Table, error) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.Options{}},
		{"+specialization", core.Options{Specialize: true}},
		{"+sharing", core.Options{Specialize: true, Share: true}},
		{"+parallelization", core.Options{Specialize: true, Share: true, Runtime: exec.Runtime{Workers: o.Workers}}},
	}
	t := Table{Title: "Figure 6: LMFAO optimization ablation (covariance batch)", Headers: []string{"Dataset"}}
	for _, c := range configs {
		t.Headers = append(t.Headers, c.name)
	}
	for _, d := range datagen.All(o.Seed, o.SF) {
		p, err := staticPlan(d)
		if err != nil {
			return nil, err
		}
		specs := core.CovarianceBatch(d.Features(), d.Response)
		var base time.Duration
		cells := []string{d.Name}
		for ci, cfg := range configs {
			el, err := lmfaoTime(p.Tree, specs, cfg.opts)
			if err != nil {
				return nil, err
			}
			if ci == 0 {
				base = el
				cells = append(cells, ms(el))
			} else {
				cells = append(cells, fmt.Sprintf("%s (%s)", ms(el), speedup(base, el)))
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	return []Table{t}, nil
}

// compression reproduces the factorization size claims of Section 1.2's
// footnote: the factorized join against the flat join and the input,
// in value counts, per dataset.
func compression(o Options) ([]Table, error) {
	t := Table{Title: "§1.2: factorized vs flat join size (values)",
		Headers: []string{"Dataset", "Input", "Flat join", "Factorized join", "Sharing"}}
	for _, d := range datagen.All(o.Seed, o.SF) {
		p, err := staticPlan(d)
		if err != nil {
			return nil, err
		}
		f, err := factor.Build(d.Join, p.VarOrder)
		if err != nil {
			return nil, err
		}
		inputVals := int64(0)
		for _, r := range d.DB.Relations() {
			inputVals += int64(r.NumRows() * r.NumAttrs())
		}
		flat := f.FlatValueCount()
		fac := f.ValueCount()
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprintf("%d", inputVals),
			fmt.Sprintf("%d (%.1fx input)", flat, float64(flat)/float64(inputVals)),
			fmt.Sprintf("%d (%.1fx smaller than flat)", fac, float64(flat)/float64(fac)),
			fmt.Sprintf("%d shared nodes", f.SharedNodeCount()),
		})
	}
	return []Table{t}, nil
}

// ifaqStages reproduces the Section 5.3 / Figure 11 pipeline: gradient
// descent for linear regression over a three-relation join, interpreted
// at each optimization stage.
func ifaqStages(o Options) ([]Table, error) {
	s, r, i := ifaqDB(o.Seed, int(20000*o.SF)+500)
	w := ifaq.Workload{
		Features: []string{"c", "p"},
		Response: "u",
		Alpha:    0.002,
		Iters:    20,
		Join: ifaq.JoinSpec{
			JoinRel: "Q",
			Base:    "S",
			Children: []ifaq.ChildSpec{
				{Rel: "R", Key: "s"},
				{Rel: "I", Key: "i"},
			},
		},
	}
	envBase := ifaq.NewEnv(map[string]*relation.Relation{"S": s, "R": r, "I": i})
	t := Table{Title: "§5.3, Figure 11: IFAQ staged optimization (time incl. join materialization where required)",
		Headers: []string{"Stage", "Time (GD, 20 iters)", "Speedup vs naive"}}
	var base time.Duration
	for si, stage := range ifaq.Stages {
		// The pre-pushdown stages run over the MATERIALIZED join, so
		// their end-to-end cost includes building it; the pushdown stage
		// touches only the base relations — the §5.3 motivation.
		el, err := timed(func() error {
			env := envBase
			if stage != ifaq.StagePushdown {
				var err error
				env, err = w.BuildEnv(s, r, i)
				if err != nil {
					return err
				}
			}
			_, err := w.Run(stage, env)
			return err
		})
		if err != nil {
			return nil, err
		}
		if si == 0 {
			base = el
		}
		t.Rows = append(t.Rows, []string{stage.String(), ms(el), speedup(base, el)})
	}
	return []Table{t}, nil
}

// ifaqDB builds the Section 5.3 Sales/StoRes/Items database at the given
// fact cardinality.
func ifaqDB(seed uint64, nS int) (*relation.Relation, *relation.Relation, *relation.Relation) {
	db := relation.NewDatabase()
	s := db.NewRelation("S", []relation.Attribute{
		{Name: "i", Type: relation.Category},
		{Name: "s", Type: relation.Category},
		{Name: "u", Type: relation.Double},
	})
	r := db.NewRelation("R", []relation.Attribute{
		{Name: "s", Type: relation.Category},
		{Name: "c", Type: relation.Double},
	})
	i := db.NewRelation("I", []relation.Attribute{
		{Name: "i", Type: relation.Category},
		{Name: "p", Type: relation.Double},
	})
	src := xrand.New(seed)
	const nR, nI = 50, 40
	cs := make([]float64, nR)
	ps := make([]float64, nI)
	for k := 0; k < nR; k++ {
		cs[k] = src.Float64()*2 - 1
		r.AppendRow(relation.CatVal(int32(k)), relation.FloatVal(cs[k]))
	}
	for k := 0; k < nI; k++ {
		ps[k] = src.Float64()*2 - 1
		i.AppendRow(relation.CatVal(int32(k)), relation.FloatVal(ps[k]))
	}
	for k := 0; k < nS; k++ {
		si := int32(src.Intn(nI))
		ss := int32(src.Intn(nR))
		u := 0.5*cs[ss] + 0.3*ps[si] + 0.05*(src.Float64()-0.5)
		s.AppendRow(relation.CatVal(si), relation.CatVal(ss), relation.FloatVal(u))
	}
	return s, r, i
}

// ineqScan reproduces the Section 2.3 claim: additive-inequality
// aggregates via sort+prefix-sums against the classical join scan, swept
// over join fanout. The factorized algorithm wins by roughly the fanout.
func ineqScan(o Options) ([]Table, error) {
	const n = 20000
	t := Table{Title: "§2.3: additive-inequality aggregates, scan vs factorized",
		Headers: []string{"Key domain", "Avg fanout", "Scan", "Factorized", "Speedup"}}
	for _, domain := range []int{8192, 1024, 128, 16} {
		db := relation.NewDatabase()
		r := db.NewRelation("R", []relation.Attribute{
			{Name: "k", Type: relation.Category},
			{Name: "x", Type: relation.Double},
		})
		s := db.NewRelation("S", []relation.Attribute{
			{Name: "k", Type: relation.Category},
			{Name: "y", Type: relation.Double},
		})
		src := xrand.New(o.Seed)
		for i := 0; i < n; i++ {
			r.AppendRow(relation.CatVal(int32(src.Intn(domain))), relation.FloatVal(src.Float64()))
			s.AppendRow(relation.CatVal(int32(src.Intn(domain))), relation.FloatVal(src.Float64()))
		}
		scan, fast, err := ineqTimes(r, s)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", domain),
			fmt.Sprintf("%.0f", float64(n)/float64(domain)),
			ms(scan), ms(fast), speedup(scan, fast),
		})
	}
	return []Table{t}, nil
}

// ineqTimes times the batch COUNT, SUM(x), SUM(y) OVER R ⋈ S ON k
// WHERE x + y > 1, evaluated by the factorized algorithm and by the
// classical scan.
func ineqTimes(r, s *relation.Relation) (scan, fast time.Duration, err error) {
	pair, err := ineq.NewPair(r, s, "k")
	if err != nil {
		return 0, 0, err
	}
	x, err := ineq.Col(r, "x")
	if err != nil {
		return 0, 0, err
	}
	y, err := ineq.Col(s, "y")
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	pair.Eval(x, y, []ineq.RowFunc{x}, []ineq.RowFunc{y}, 1.0)
	fast = time.Since(start)
	start = time.Now()
	pair.EvalScan(x, y, []ineq.RowFunc{x}, []ineq.RowFunc{y}, 1.0)
	return time.Since(start), fast, nil
}

// reuse reproduces the Section 1.5 model-selection argument: once the
// covariance matrix is computed, training a model on any feature SUBSET
// is milliseconds, while the agnostic path pays a full data pass per
// candidate model.
func reuse(o Options) ([]Table, error) {
	d := datagen.Retailer(o.Seed, o.SF)
	const candidates = 100

	var sigma *ml.Sigma
	batchT, err := timed(func() (err error) {
		sigma, err = covarSigma(d, o.Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	src := xrand.New(o.Seed)
	reuseT, err := timed(func() error {
		for c := 0; c < candidates; c++ {
			var sub []string
			for _, a := range d.Cont {
				if src.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			if len(sub) == 0 {
				sub = d.Cont[:1]
			}
			subSigma, err := ml.SubsetSigma(sigma, sub, nil)
			if err != nil {
				return err
			}
			ml.TrainLinRegGD(subSigma, 1e-3, 5000, 1e-9)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One agnostic data pass (one SGD epoch over the materialized join)
	// prices what every candidate model costs on the agnostic path.
	data, err := engine.MaterializeJoin(d.Join)
	if err != nil {
		return nil, err
	}
	onePassT, err := timed(func() error {
		return ml.OneSGDPass(data, d.Cont, d.Cat, d.Response)
	})
	if err != nil {
		return nil, err
	}
	agnosticT := time.Duration(candidates) * onePassT
	return []Table{{Title: "§1.5: model selection by moment reuse", Headers: []string{"Step", "Time"},
		Rows: [][]string{
			{"Aggregate batch (once)", ms(batchT)},
			{fmt.Sprintf("Train %d subset models from moments", candidates), ms(reuseT)},
			{"TOTAL structure-aware", ms(batchT + reuseT)},
			{"One SGD data pass (per candidate!)", ms(onePassT)},
			{fmt.Sprintf("TOTAL agnostic (%d candidates)", candidates), ms(agnosticT)},
			{"Speedup", speedup(agnosticT, batchT+reuseT)},
		}}}, nil
}
