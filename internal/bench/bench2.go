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
	"borg/internal/plan"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// Fig5 reproduces the table of Figure 5: the number of aggregates each
// workload compiles to, per dataset. The counts are deterministic in the
// schema and feature lists.
func Fig5(o Options) error {
	o.defaults()
	var rows [][]string
	for _, d := range datagen.All(o.Seed, o.SF) {
		covar := len(core.CovarianceBatch(d.Features(), d.Response))
		node := len(core.DecisionNodeBatch(d.Features(), d.Response, thresholdsFor(d, 8)))
		mi := len(core.MutualInfoBatch(d.Cat))
		km := len(core.KMeansBatch(d.Cont, d.GridAttr))
		rows = append(rows, []string{d.Name,
			fmt.Sprintf("%d", covar), fmt.Sprintf("%d", node),
			fmt.Sprintf("%d", mi), fmt.Sprintf("%d", km)})
	}
	printTable(o.Out, "Figure 5: number of aggregates per workload",
		[]string{"Dataset", "Covar. matrix", "Decision node", "Mutual inf.", "k-means"}, rows)
	return nil
}

// Fig6 reproduces the optimization ablation of Figure 6: the covariance
// batch evaluated with the LMFAO optimizations enabled cumulatively —
// baseline (interpreted, no sharing, sequential), +specialization,
// +sharing, +parallelization — reporting speedup over the baseline.
func Fig6(o Options) error {
	o.defaults()
	configs := []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.Options{}},
		{"+specialization", core.Options{Specialize: true}},
		{"+sharing", core.Options{Specialize: true, Share: true}},
		{"+parallelization", core.Options{Specialize: true, Share: true, Runtime: exec.Runtime{Workers: o.Workers}}},
	}
	var rows [][]string
	for _, d := range datagen.All(o.Seed, o.SF) {
		p, err := plan.New(d.Join, plan.Options{PinnedRoot: d.Root, Static: true})
		if err != nil {
			return err
		}
		jt := p.Tree
		specs := core.CovarianceBatch(d.Features(), d.Response)
		var base time.Duration
		cells := []string{d.Name}
		for ci, cfg := range configs {
			t, err := timed(func() error {
				plan, err := core.Compile(jt, specs, cfg.opts)
				if err != nil {
					return err
				}
				_, err = plan.Eval()
				return err
			})
			if err != nil {
				return err
			}
			if ci == 0 {
				base = t
				cells = append(cells, ms(t))
			} else {
				cells = append(cells, fmt.Sprintf("%s (%.1fx)", ms(t), float64(base)/float64(t)))
			}
		}
		rows = append(rows, cells)
	}
	headers := []string{"Dataset"}
	for _, c := range configs {
		headers = append(headers, c.name)
	}
	printTable(o.Out, "Figure 6: LMFAO optimization ablation (covariance batch)", headers, rows)
	return nil
}

// Compression reproduces the factorization size claims of Section 1.2's
// footnote: the factorized join against the flat join and the input,
// in value counts, per dataset.
func Compression(o Options) error {
	o.defaults()
	var rows [][]string
	for _, d := range datagen.All(o.Seed, o.SF) {
		p, err := plan.New(d.Join, plan.Options{PinnedRoot: d.Root, Static: true})
		if err != nil {
			return err
		}
		f, err := factor.Build(d.Join, p.VarOrder)
		if err != nil {
			return err
		}
		inputVals := int64(0)
		for _, r := range d.DB.Relations() {
			inputVals += int64(r.NumRows() * r.NumAttrs())
		}
		flat := f.FlatValueCount()
		fac := f.ValueCount()
		rows = append(rows, []string{
			d.Name,
			fmt.Sprintf("%d", inputVals),
			fmt.Sprintf("%d (%.1fx input)", flat, float64(flat)/float64(inputVals)),
			fmt.Sprintf("%d (%.1fx smaller than flat)", fac, float64(flat)/float64(fac)),
			fmt.Sprintf("%d shared nodes", f.SharedNodeCount()),
		})
	}
	printTable(o.Out, "E6: factorized vs flat join size (values)",
		[]string{"Dataset", "Input", "Flat join", "Factorized join", "Sharing"}, rows)
	return nil
}

// IFAQStages reproduces the Section 5.3 / Figure 11 pipeline: gradient
// descent for linear regression over a three-relation join, interpreted
// at each optimization stage.
func IFAQStages(o Options) error {
	o.defaults()
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
	var rows [][]string
	var base time.Duration
	for si, stage := range ifaq.Stages {
		// The pre-pushdown stages run over the MATERIALIZED join, so
		// their end-to-end cost includes building it; the pushdown stage
		// touches only the base relations — the §5.3 motivation.
		t, err := timed(func() error {
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
			return err
		}
		if si == 0 {
			base = t
		}
		rows = append(rows, []string{stage.String(), ms(t),
			fmt.Sprintf("%.1fx", float64(base)/float64(t))})
	}
	printTable(o.Out, "E8 (Section 5.3 / Figure 11): IFAQ staged optimization (time incl. join materialization where required)",
		[]string{"Stage", "Time (GD, 20 iters)", "Speedup vs naive"}, rows)
	return nil
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

// Ineq reproduces the Section 2.3 claim: additive-inequality aggregates
// via sort+prefix-sums against the classical join scan, swept over join
// fanout. The factorized algorithm wins by roughly the fanout.
func Ineq(o Options) error {
	o.defaults()
	const n = 20000
	var rows [][]string
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
		pair, err := ineq.NewPair(r, s, "k")
		if err != nil {
			return err
		}
		x, _ := ineq.Col(r, "x")
		y, _ := ineq.Col(s, "y")
		fastT, _ := timed(func() error {
			pair.Eval(x, y, []ineq.RowFunc{x}, []ineq.RowFunc{y}, 1.0)
			return nil
		})
		scanT, _ := timed(func() error {
			pair.EvalScan(x, y, []ineq.RowFunc{x}, []ineq.RowFunc{y}, 1.0)
			return nil
		})
		rows = append(rows, []string{
			fmt.Sprintf("%d", domain),
			fmt.Sprintf("%.0f", float64(n)/float64(domain)),
			ms(scanT), ms(fastT),
			fmt.Sprintf("%.1fx", float64(scanT)/float64(fastT)),
		})
	}
	printTable(o.Out, "E9 (Section 2.3): additive-inequality aggregates, scan vs factorized",
		[]string{"Key domain", "Avg fanout", "Scan", "Factorized", "Speedup"}, rows)
	return nil
}

// Reuse reproduces the Section 1.5 model-selection argument: once the
// covariance matrix is computed, training a model on any feature SUBSET
// is milliseconds, while the agnostic path pays a full data pass per
// candidate model.
func Reuse(o Options) error {
	o.defaults()
	d := datagen.Retailer(o.Seed, o.SF)
	const candidates = 100

	var sigma *ml.Sigma
	batchT, err := timed(func() error {
		plan, err := covarPlan(d, core.Optimized(o.Workers))
		if err != nil {
			return err
		}
		results, err := plan.Eval()
		if err != nil {
			return err
		}
		sigma, err = ml.AssembleSigma(d.Cont, d.Cat, d.Response, results)
		return err
	})
	if err != nil {
		return err
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
		return err
	}

	// One agnostic data pass (one SGD epoch over the materialized join)
	// prices what every candidate model costs on the agnostic path.
	data, err := engine.MaterializeJoin(d.Join)
	if err != nil {
		return err
	}
	onePassT, err := timed(func() error {
		return ml.OneSGDPass(data, d.Cont, d.Cat, d.Response)
	})
	if err != nil {
		return err
	}
	rows := [][]string{
		{"Aggregate batch (once)", ms(batchT)},
		{fmt.Sprintf("Train %d subset models from moments", candidates), ms(reuseT)},
		{"TOTAL structure-aware", ms(batchT + reuseT)},
		{"One SGD data pass (per candidate!)", ms(onePassT)},
		{fmt.Sprintf("TOTAL agnostic (%d candidates)", candidates), ms(time.Duration(candidates) * onePassT)},
		{"Speedup", fmt.Sprintf("%.1fx", float64(candidates)*float64(onePassT)/float64(batchT+reuseT))},
	}
	printTable(o.Out, "E10 (Section 1.5): model selection by moment reuse", []string{"Step", "Time"}, rows)
	return nil
}

// All runs every paper figure in paper order.
func All(o Options) error {
	o.defaults()
	for _, f := range []func(Options) error{Fig3, Fig4Left, Fig4Right, Fig5, Fig6, Compression, IFAQStages, Ineq, Reuse} {
		if err := f(o); err != nil {
			return err
		}
	}
	return nil
}
