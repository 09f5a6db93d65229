package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/ml"
	"borg/internal/serve"
)

// ModelCell is one measured model-zoo configuration: how many times per
// second one model kind trains from a live epoch snapshot of one IVM
// strategy. Training is aggregate-only — it never touches data — so the
// rate is independent of the loaded stream size; near-identical numbers
// across strategies are the paper's point (the strategies differ in how
// fast they PRODUCE the statistics, not in what training costs).
type ModelCell struct {
	Kind     string `json:"kind"`
	Strategy string `json:"strategy"`
	// Loaded is the stream size (dimensions + facts) the cell's server
	// held when training was timed; first-order carries a shorter fact
	// load than the view-based strategies.
	Loaded       int     `json:"loaded"`
	Trainings    uint64  `json:"trainings"`
	Seconds      float64 `json:"seconds"`
	TrainsPerSec float64 `json:"trains_per_sec"`
}

// ModelsReport is the machine-readable result of the model-zoo
// benchmark: snapshot-training throughput for every model kind × IVM
// strategy over a loaded serving tier. Committed runs live under
// benchmarks/.
type ModelsReport struct {
	Dataset       string      `json:"dataset"`
	SF            float64     `json:"sf"`
	Seed          uint64      `json:"seed"`
	Features      int         `json:"features"`
	CPUs          int         `json:"cpus"`
	BudgetSeconds float64     `json:"budget_seconds"`
	Env           Environment `json:"env"`
	Cells         []ModelCell `json:"cells"`
}

// ModelKinds lists the measured model kinds, in report order.
var ModelKinds = []string{"linreg", "pca", "polyreg", "kmeans-seed"}

// modelsSink keeps the trained models observable so the compiler cannot
// eliminate the training being timed.
var modelsSink float64

// ModelsBench loads the Retailer stream into one lifted serving stack
// per IVM strategy, then measures how many times per second each model
// kind trains from the published epoch snapshot: snapshot load + moment
// assembly + solver, no data access.
func ModelsBench(o Options) (*ModelsReport, error) {
	o.defaults()
	d := datagen.Retailer(o.Seed, o.SF)
	stream := interleavedStream(d, o.Seed)
	// Four features keep the lifted batch at C(8,4) = 70 moments, small
	// enough that even first-order maintenance loads in CI time; the
	// training rates this benchmark gates scale the same way at any
	// width.
	features := d.Cont
	if len(features) > 4 {
		features = features[:4]
	}
	response := features[0]
	// Dimensions first, then facts: a fact only contributes once every
	// join partner is live, so a shuffled prefix of the full stream can
	// leave the join empty — the loaded server must have a non-degenerate
	// snapshot for the trainers to measure.
	var dims, facts []ivm.Tuple
	for _, t := range stream {
		if t.Rel == d.Root {
			facts = append(facts, t)
		} else {
			dims = append(dims, t)
		}
	}
	rep := &ModelsReport{
		Dataset:       d.Name,
		SF:            o.SF,
		Seed:          o.Seed,
		Features:      len(features),
		CPUs:          runtime.NumCPU(),
		BudgetSeconds: o.Budget.Seconds(),
		Env:           captureEnv(o.Workers, 0),
	}
	// Every cell gets an equal slice of the run budget; training is
	// data-independent, so small slices still give stable rates.
	cellBudget := o.Budget / time.Duration(len(serve.Strategies())*len(ModelKinds))
	if cellBudget < 50*time.Millisecond {
		cellBudget = 50 * time.Millisecond
	}
	for _, strategy := range serve.Strategies() {
		// The loaded stream size only shapes maintenance time, not the
		// statistics-based training this benchmark times; first-order
		// maintenance of the lifted batch is the paper's slow baseline,
		// so it gets a shorter fact load.
		nFacts := len(facts)
		if nFacts > 2000 {
			nFacts = 2000
		}
		if strategy == serve.FirstOrder && nFacts > 120 {
			nFacts = 120
		}
		srv, err := serve.New(d.Join, d.Root, features, serve.Config{
			Strategy: strategy,
			Payload:  serve.PayloadPoly2,
			Workers:  o.Workers,
		})
		if err != nil {
			return nil, err
		}
		for _, t := range append(append([]ivm.Tuple(nil), dims...), facts[:nFacts]...) {
			if err := srv.Insert(t); err != nil {
				srv.Close()
				return nil, err
			}
		}
		if err := srv.Flush(); err != nil {
			srv.Close()
			return nil, err
		}
		for _, kind := range ModelKinds {
			cell, err := modelCell(srv, kind, strategy.String(), features, response, cellBudget)
			if err != nil {
				srv.Close()
				return nil, err
			}
			cell.Loaded = len(dims) + nFacts
			rep.Cells = append(rep.Cells, cell)
		}
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// modelCell times one kind × strategy cell: repeated snapshot-read +
// train rounds until the budget expires (at least three rounds).
func modelCell(srv *serve.Server, kind, strategy string, features []string, response string, budget time.Duration) (ModelCell, error) {
	train := func() (float64, error) {
		snap := srv.Snapshot()
		switch kind {
		case "linreg":
			sigma, err := ml.SigmaFromCovar(features, response, snap.Stats)
			if err != nil {
				return 0, err
			}
			m := ml.TrainLinRegGD(sigma, 1e-3, 50000, 1e-10)
			return m.Theta[0], nil
		case "pca":
			sigma, err := ml.MomentsFromCovar(features, snap.Stats)
			if err != nil {
				return 0, err
			}
			_, eigs, err := ml.PCA(sigma, 3, 0, 2020)
			if err != nil {
				return 0, err
			}
			return eigs[0], nil
		case "polyreg":
			m, err := ml.TrainPolyRegFromLifted(features, response, snap.Lifted, 1e-3)
			if err != nil {
				return 0, err
			}
			return m.Theta[0], nil
		case "kmeans-seed":
			sigma, err := ml.MomentsFromCovar(features, snap.Stats)
			if err != nil {
				return 0, err
			}
			seeds, err := ml.KMeansSeeds(sigma, 4)
			if err != nil {
				return 0, err
			}
			return seeds[0][0], nil
		}
		return 0, fmt.Errorf("bench: unknown model kind %q", kind)
	}
	var trainings uint64
	start := time.Now()
	for {
		v, err := train()
		if err != nil {
			return ModelCell{}, fmt.Errorf("%s × %s: %w", kind, strategy, err)
		}
		modelsSink += v
		trainings++
		if trainings >= 3 && time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	return ModelCell{
		Kind:         kind,
		Strategy:     strategy,
		Trainings:    trainings,
		Seconds:      elapsed,
		TrainsPerSec: float64(trainings) / elapsed,
	}, nil
}

// ModelsBenchTable runs the model-zoo benchmark and renders it as a
// table, or as indented JSON when o.JSON is set (the format committed
// under benchmarks/).
func ModelsBenchTable(o Options) error {
	o.defaults()
	rep, err := ModelsBench(o)
	if err != nil {
		return err
	}
	if o.JSON {
		enc := json.NewEncoder(o.Out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	var rows [][]string
	for _, c := range rep.Cells {
		rows = append(rows, []string{
			c.Kind, c.Strategy,
			fmt.Sprintf("%d", c.Trainings),
			fmt.Sprintf("%.0f/s", c.TrainsPerSec),
			fmt.Sprintf("%.3f ms", 1000*c.Seconds/float64(c.Trainings)),
		})
	}
	printTable(o.Out, fmt.Sprintf("Model zoo: %s snapshot trainings, %d features (%d CPUs)",
		rep.Dataset, rep.Features, rep.CPUs),
		[]string{"Kind", "Strategy", "Trainings", "Trains/sec", "Per training"}, rows)
	return nil
}
