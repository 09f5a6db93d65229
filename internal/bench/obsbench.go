package bench

import (
	"encoding/json"
	"fmt"
	"runtime"

	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/obs"
	"borg/internal/serve"
)

// ObsCell is one measured ingest run of the observability benchmark:
// the Retailer stream through a serving server with metrics either on
// (the default serving configuration) or off (Config.MetricsOff, the
// control arm with zero instrumentation in the pipeline).
type ObsCell struct {
	Variant   string  `json:"variant"` // "instrumented" or "uninstrumented"
	Rep       int     `json:"rep"`
	Ops       uint64  `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Note      string  `json:"note,omitempty"`
	// Series is the registry's series count after the run (instrumented
	// cells only) — a sanity check that the hot path actually updated a
	// full registry rather than a stub.
	Series int `json:"series,omitempty"`
}

// ObsReport is the machine-readable result of the observability-overhead
// benchmark: identical ingest workloads with instrumentation on and off,
// and the overhead ratio the perf gate bounds. Committed runs live under
// benchmarks/obs.json.
type ObsReport struct {
	Dataset       string      `json:"dataset"`
	SF            float64     `json:"sf"`
	Seed          uint64      `json:"seed"`
	StreamLen     int         `json:"stream_len"`
	CPUs          int         `json:"cpus"`
	Reps          int         `json:"reps"`
	BudgetSeconds float64     `json:"budget_seconds"`
	Env           Environment `json:"env"`
	Cells         []ObsCell   `json:"cells"`
	// BestInstrumented / BestUninstrumented are each variant's best
	// ops/sec across the reps; OverheadRatio is uninstrumented divided by
	// instrumented — 1.00 means free instrumentation, and the perf gate
	// fails the build when it exceeds its bound (default 1.05).
	BestInstrumented   float64 `json:"best_instrumented_ops_per_sec"`
	BestUninstrumented float64 `json:"best_uninstrumented_ops_per_sec"`
	OverheadRatio      float64 `json:"overhead_ratio"`
}

// obsReps is how many times each variant runs; the report keeps the best
// of each so scheduler noise cancels instead of deciding the ratio.
const obsReps = 3

// ObsBench measures the cost of the metrics layer on the ingest hot
// path: the same two-writer Retailer insert stream runs through a fivm
// server with instrumentation on and off, interleaved rep by rep so both
// variants see the same thermal and scheduling conditions. The
// instrumented arm is the production default (a live registry observing
// queue wait, batch sizes, phase splits, and publications per batch);
// the uninstrumented arm is Config.MetricsOff. Every metric update is a
// bare atomic add on a pre-resolved handle, so the expected ratio is
// within measurement noise of 1.
func ObsBench(o Options) (*ObsReport, error) {
	o.defaults()
	const writers = 2
	d := datagen.Retailer(o.Seed, o.SF)
	stream := interleavedStream(d, o.Seed)
	rep := &ObsReport{
		Dataset:       d.Name,
		SF:            o.SF,
		Seed:          o.Seed,
		StreamLen:     len(stream),
		CPUs:          runtime.NumCPU(),
		Reps:          obsReps,
		BudgetSeconds: o.Budget.Seconds(),
		Env:           captureEnv(o.Workers, 0),
	}
	for r := 0; r < obsReps; r++ {
		for _, instrumented := range []bool{true, false} {
			cell, err := obsCell(d, stream, instrumented, r, writers, o)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, cell)
			switch {
			case instrumented && cell.OpsPerSec > rep.BestInstrumented:
				rep.BestInstrumented = cell.OpsPerSec
			case !instrumented && cell.OpsPerSec > rep.BestUninstrumented:
				rep.BestUninstrumented = cell.OpsPerSec
			}
		}
	}
	if rep.BestInstrumented > 0 {
		rep.OverheadRatio = rep.BestUninstrumented / rep.BestInstrumented
	}
	return rep, nil
}

// obsCell runs one rep of one variant through the shared streaming
// harness (no readers: the cost under test is the writer-side update
// path, not scrape contention).
func obsCell(d *datagen.Dataset, stream []ivm.Tuple, instrumented bool, r, writers int, o Options) (ObsCell, error) {
	cfg := serve.Config{
		Strategy:   serve.FIVM,
		BatchSize:  64,
		QueueDepth: 256,
		Workers:    o.Workers,
	}
	variant := "uninstrumented"
	if instrumented {
		variant = "instrumented"
		cfg.Obs = obs.NewRegistry()
	} else {
		cfg.MetricsOff = true
	}
	srv, err := serve.New(d.Join, d.Root, d.Cont, cfg)
	if err != nil {
		return ObsCell{}, err
	}
	m, err := measureStream(serveTarget(srv), stream, writers, 0, 0, o)
	if err != nil {
		return ObsCell{}, err
	}
	cell := ObsCell{
		Variant:   variant,
		Rep:       r,
		Ops:       m.Inserts + m.Deletes,
		Seconds:   m.Seconds,
		OpsPerSec: float64(m.Inserts+m.Deletes) / m.Seconds,
		Note:      m.Note,
	}
	if instrumented {
		cell.Series = cfg.Obs.SeriesCount()
	}
	return cell, nil
}

// ObsBenchTable runs the observability benchmark and renders it as a
// table, or as indented JSON when o.JSON is set (the format committed
// under benchmarks/obs.json).
func ObsBenchTable(o Options) error {
	o.defaults()
	rep, err := ObsBench(o)
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
		series := ""
		if c.Series > 0 {
			series = fmt.Sprintf("%d", c.Series)
		}
		rows = append(rows, []string{
			c.Variant, fmt.Sprintf("%d", c.Rep),
			fmt.Sprintf("%d", c.Ops),
			fmt.Sprintf("%.0f/s", c.OpsPerSec),
			series, c.Note,
		})
	}
	printTable(o.Out, fmt.Sprintf("Observability overhead: %s stream, best instrumented %.0f ops/s vs uninstrumented %.0f ops/s, ratio %.3fx (%d CPUs)",
		rep.Dataset, rep.BestInstrumented, rep.BestUninstrumented, rep.OverheadRatio, rep.CPUs),
		[]string{"Variant", "Rep", "Ops", "Ops/sec", "Series", "Note"}, rows)
	return nil
}
