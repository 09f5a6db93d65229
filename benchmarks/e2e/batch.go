package main

import (
	"fmt"
	"os"
	"time"

	"borg"
)

// runBatch is batch_retailer: rounds of the four batch models of the
// facade over a static Retailer database — the paper's headline,
// aggregates pushed past joins — with no serving and no maintenance.
// It reports its own three metrics and is not in BENCHMARK.json: it has
// no ingest to report the serving metrics from.
func runBatch(rc *runCtx) error {
	setupSpan := rc.tr.begin(rc.root, "setup")
	t0 := time.Now()
	ds, err := borg.GenerateDataset("retailer", rc.seed, rc.sz.batchSF)
	setup := time.Since(t0)
	rc.tr.end(setupSpan)
	if err != nil {
		return err
	}
	ds.Workers = rc.workers
	models := []struct {
		name string
		run  func() (bool, error)
	}{
		{"covariance", func() (bool, error) {
			c, err := ds.Covariance(ds.Feats, ds.Response)
			if err != nil {
				return false, err
			}
			return finite(c.Count()) && c.Count() > 0, nil
		}},
		{"linreg", func() (bool, error) {
			m, err := ds.LinearRegression(ds.Feats, ds.Response, 1e-3)
			if err != nil {
				return false, err
			}
			return finite(m.Intercept()), nil
		}},
		{"dtree", func() (bool, error) {
			t, err := ds.DecisionTree(ds.Feats, ds.Response, borg.TreeOptions{MaxDepth: rc.sz.batchDepth})
			if err != nil {
				return false, err
			}
			return t.Nodes() > 0, nil
		}},
		{"kmeans", func() (bool, error) {
			c, err := ds.KMeans(ds.Feats.Continuous[:2], ds.GridAttr, 4, 10, rc.seed)
			if err != nil {
				return false, err
			}
			return finite(c.Objective), nil
		}},
	}
	measure := rc.tr.begin(rc.root, "measure")
	var rounds []float64
	perModel := make([][]float64, len(models))
	var start time.Time
	for round := 0; ; round++ {
		if round == 1 { // round 0 warmed up
			start, rounds, perModel = time.Now(), nil, make([][]float64, len(models))
		}
		if round > 1 && time.Since(start) >= rc.measured() {
			break
		}
		sp := rc.tr.begin(measure, "batch_round")
		r0 := time.Now()
		for i, m := range models {
			ms := rc.tr.begin(sp, "core."+m.name)
			m0 := time.Now()
			ok, err := m.run()
			perModel[i] = append(perModel[i], time.Since(m0).Seconds())
			rc.tr.end(ms)
			if err != nil {
				return fmt.Errorf("batch %s: %w", m.name, err)
			}
			if !ok {
				return fmt.Errorf("batch %s: the model is not finite", m.name)
			}
		}
		rounds = append(rounds, time.Since(r0).Seconds())
		rc.tr.end(sp)
	}
	rc.tr.end(measure)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res := rc.res
	res.Attempted = int64(len(rounds) * len(models))
	if !rc.trace {
		m := ofParts(rounds, len(rounds))
		m.Unit, m.Better = "s", "lower"
		res.Metrics["batch_round_s"] = m
		res.Metrics["setup_s"] = metric{Value: setup.Seconds(), Unit: "s", Better: "lower", N: 1}
		res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB", Better: "lower", N: 1}
	}
	for i, m := range models {
		res.layer("core."+m.name+"_s", medianOf(perModel[i]), len(perModel[i]))
	}
	return nil
}
