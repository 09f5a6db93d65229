// Command borg-perfgate is the CI performance-regression gate: it
// compares fresh `borg-bench -json` runs against the committed
// baselines under benchmarks/ and fails when any cell slowed down
// beyond the tolerance. Three reports are gated:
//
//   - the exec-runtime baseline (`-fig exec`, per worker-count cell,
//     compared on best wall time),
//   - the serving benchmark (`-fig serve`, per strategy × readers ×
//     insert/delete-mix cell, compared on applied ops/sec — so both
//     insert and retraction throughput are regression-gated), and
//   - the sharded-serving benchmark (`-fig shard`, per strategy ×
//     shard-count × variant × mix cell, compared on applied ops/sec —
//     covering the shard router, the ring-merged read path, and the
//     Shards=1 fast-path devolution), and
//   - the model-zoo benchmark (`-fig models`, per model-kind × strategy
//     cell, compared on snapshot trainings/sec — so a regression in the
//     epoch→model path of any model kind trips the gate), and
//   - the categorical-zoo benchmark (`-fig catzoo`, per kind × strategy
//     × payload cell: cofactor-payload ingest throughput plus
//     snapshot-training rates of the mixed continuous/categorical kinds
//     — one-hot linreg, varying-coefficients polyreg, Chow–Liu,
//     categorical trees, LS-SVM), and
//   - the multi-core ingest benchmark (`-fig scale`, per strategy ×
//     GOMAXPROCS × shard-count × mix cell on applied ops/sec, plus a
//     scaling-efficiency floor: on hosts with 4+ CPUs the best
//     strategy's 1→4 shard speedup (procs = shards) must clear a
//     minimum, so a change that serializes the shard writers on each
//     other fails even if absolute single-core throughput holds), and
//   - the observability-overhead benchmark (`-fig obs`, instrumented vs
//     uninstrumented ingest on the same stream: the instrumented rate is
//     throughput-gated like every other cell, and the fresh overhead
//     ratio must stay under -max-obs-overhead — default 1.05× — so
//     instrumentation can never quietly tax the hot path).
//
// Usage:
//
//	borg-bench -fig exec -json > exec-fresh.json
//	borg-bench -fig serve -json > serve-fresh.json
//	borg-bench -fig shard -json > shard-fresh.json
//	borg-bench -fig models -json > models-fresh.json
//	borg-bench -fig catzoo -json > catzoo-fresh.json
//	borg-bench -fig scale -json > scale-fresh.json
//	borg-bench -fig obs -json > obs-fresh.json
//	borg-perfgate -baseline benchmarks/baseline.json -fresh exec-fresh.json \
//	              -serve-baseline benchmarks/serve.json -serve-fresh serve-fresh.json \
//	              -shard-baseline benchmarks/shard.json -shard-fresh shard-fresh.json \
//	              -models-baseline benchmarks/models.json -models-fresh models-fresh.json \
//	              -catzoo-baseline benchmarks/catzoo.json -catzoo-fresh catzoo-fresh.json \
//	              -scale-baseline benchmarks/scale.json -scale-fresh scale-fresh.json \
//	              -obs-baseline benchmarks/obs.json -obs-fresh obs-fresh.json
//
// The tolerance is deliberately generous — CI runners are noisy and the
// gate exists to catch order-of-magnitude regressions (a serialized hot
// path, an accidental O(n²)), not 10% wobble. Per cell, the fresh best
// time may be at most
//
//	max-ratio × max(1, p_base/p_fresh)
//
// times the baseline best time, where p = min(workers, cpus) is the
// effective parallelism each host could give that cell.
//
// Reports from hosts with differing CPU counts are refused outright:
// throughput cells measured on different machine shapes are not
// comparable, and silently normalizing them (the old behavior) let real
// regressions hide inside the slack. PERF_GATE_ALLOW_CPU_MISMATCH=1
// restores the normalized comparison for deliberate cross-host runs —
// that is when the p_base/p_fresh penalty above applies.
//
// Knobs for noisy runners:
//
//	-max-ratio 2.5                   the per-cell tolerance (flag)
//	PERF_GATE_MAX_RATIO=4            environment override, wins over the flag
//	PERF_GATE_ALLOW_CPU_MISMATCH=1   compare across CPU counts (normalized)
//	PERF_GATE_MIN_SCALE=1.5          scaling-efficiency floor override
//	PERF_GATE_MAX_OBS_OVERHEAD=1.1   instrumentation-overhead bound override
//	PERF_GATE_SKIP=1                 skip the gate entirely (emergency valve)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"borg/internal/bench"
)

func main() {
	baselinePath := flag.String("baseline", "benchmarks/baseline.json", "committed exec baseline report")
	freshPath := flag.String("fresh", "", "fresh exec report to gate")
	serveBaselinePath := flag.String("serve-baseline", "benchmarks/serve.json", "committed serving baseline report")
	serveFreshPath := flag.String("serve-fresh", "", "fresh serving report to gate")
	shardBaselinePath := flag.String("shard-baseline", "benchmarks/shard.json", "committed sharded-serving baseline report")
	shardFreshPath := flag.String("shard-fresh", "", "fresh sharded-serving report to gate")
	modelsBaselinePath := flag.String("models-baseline", "benchmarks/models.json", "committed model-zoo baseline report")
	modelsFreshPath := flag.String("models-fresh", "", "fresh model-zoo report to gate")
	catZooBaselinePath := flag.String("catzoo-baseline", "benchmarks/catzoo.json", "committed categorical-zoo baseline report")
	catZooFreshPath := flag.String("catzoo-fresh", "", "fresh categorical-zoo report to gate")
	scaleBaselinePath := flag.String("scale-baseline", "benchmarks/scale.json", "committed multi-core ingest baseline report")
	scaleFreshPath := flag.String("scale-fresh", "", "fresh multi-core ingest report to gate")
	planBaselinePath := flag.String("plan-baseline", "benchmarks/plan.json", "committed planning baseline report")
	planFreshPath := flag.String("plan-fresh", "", "fresh planning report to gate")
	obsBaselinePath := flag.String("obs-baseline", "benchmarks/obs.json", "committed observability-overhead baseline report")
	obsFreshPath := flag.String("obs-fresh", "", "fresh observability-overhead report to gate")
	maxRatio := flag.Float64("max-ratio", 2.5, "max allowed fresh/baseline slowdown per cell")
	minScale := flag.Float64("min-scale", 1.5, "min 1→4 shard speedup of the best strategy (enforced on 4+ CPU hosts)")
	maxObsOverhead := flag.Float64("max-obs-overhead", 1.05, "max allowed instrumented/uninstrumented ingest slowdown in the fresh obs report")
	flag.Parse()

	if os.Getenv("PERF_GATE_SKIP") == "1" {
		fmt.Println("perfgate: PERF_GATE_SKIP=1, skipping")
		return
	}
	if env := os.Getenv("PERF_GATE_MAX_RATIO"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fatal(fmt.Errorf("bad PERF_GATE_MAX_RATIO %q: %v", env, err))
		}
		*maxRatio = v
	}
	if env := os.Getenv("PERF_GATE_MIN_SCALE"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fatal(fmt.Errorf("bad PERF_GATE_MIN_SCALE %q: %v", env, err))
		}
		*minScale = v
	}
	if env := os.Getenv("PERF_GATE_MAX_OBS_OVERHEAD"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fatal(fmt.Errorf("bad PERF_GATE_MAX_OBS_OVERHEAD %q: %v", env, err))
		}
		*maxObsOverhead = v
	}
	if *freshPath == "" && *serveFreshPath == "" && *shardFreshPath == "" && *modelsFreshPath == "" && *catZooFreshPath == "" && *scaleFreshPath == "" && *planFreshPath == "" && *obsFreshPath == "" {
		fatal(fmt.Errorf("at least one of -fresh, -serve-fresh, -shard-fresh, -models-fresh, -catzoo-fresh, -scale-fresh, -plan-fresh, or -obs-fresh is required"))
	}
	failed := false
	if *freshPath != "" {
		failed = gateExec(*baselinePath, *freshPath, *maxRatio) || failed
	}
	if *serveFreshPath != "" {
		failed = gateServe(*serveBaselinePath, *serveFreshPath, *maxRatio) || failed
	}
	if *shardFreshPath != "" {
		failed = gateShard(*shardBaselinePath, *shardFreshPath, *maxRatio) || failed
	}
	if *modelsFreshPath != "" {
		failed = gateModels(*modelsBaselinePath, *modelsFreshPath, *maxRatio) || failed
	}
	if *catZooFreshPath != "" {
		failed = gateCatZoo(*catZooBaselinePath, *catZooFreshPath, *maxRatio) || failed
	}
	if *scaleFreshPath != "" {
		failed = gateScale(*scaleBaselinePath, *scaleFreshPath, *maxRatio, *minScale) || failed
	}
	if *planFreshPath != "" {
		failed = gatePlan(*planBaselinePath, *planFreshPath, *maxRatio) || failed
	}
	if *obsFreshPath != "" {
		failed = gateObs(*obsBaselinePath, *obsFreshPath, *maxRatio, *maxObsOverhead) || failed
	}
	if failed {
		fatal(fmt.Errorf("performance regression beyond %.2fx tolerance (override with PERF_GATE_MAX_RATIO or PERF_GATE_SKIP=1 on known-noisy runners)", *maxRatio))
	}
	fmt.Println("perfgate: pass")
}

// gateExec compares the exec-runtime report per worker-count cell on
// best wall time. Returns true when any cell regressed.
func gateExec(baselinePath, freshPath string, maxRatio float64) bool {
	base, err := loadReport[bench.ExecBaselineReport](baselinePath, func(r *bench.ExecBaselineReport) int { return len(r.Runs) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.ExecBaselineReport](freshPath, func(r *bench.ExecBaselineReport) int { return len(r.Runs) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("exec", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("exec", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))

	freshByWorkers := make(map[int]bench.ExecBaselineRun, len(fresh.Runs))
	for _, r := range fresh.Runs {
		freshByWorkers[r.Workers] = r
	}
	fmt.Printf("perfgate: exec baseline %s (%d cpus) vs fresh (%d cpus), tolerance %.2fx\n",
		baselinePath, base.CPUs, fresh.CPUs, maxRatio)
	failed := false
	for _, b := range base.Runs {
		f, ok := freshByWorkers[b.Workers]
		if !ok {
			fmt.Printf("  workers=%d  MISSING from fresh report\n", b.Workers)
			failed = true
			continue
		}
		allowed := maxRatio * parallelismPenalty(b.Workers, base.CPUs, fresh.CPUs)
		ratio := f.BestMS / b.BestMS
		verdict := "ok"
		if ratio > allowed {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("  workers=%d  base %.1f ms  fresh %.1f ms  ratio %.2fx  allowed %.2fx  %s\n",
			b.Workers, b.BestMS, f.BestMS, ratio, allowed, verdict)
	}
	return failed
}

// throughputCell is one gated cell of an ops/sec-based report: key
// matches baseline and fresh cells, label is the printed name, ops the
// per-cell metric, and clients the concurrent-goroutine load used for
// the parallelism penalty.
type throughputCell struct {
	key     string
	label   string
	ops     float64
	clients int
}

// gateThroughput compares fresh against base per cell on applied
// ops/sec (a cell regresses when base/fresh exceeds the allowed ratio).
// Shared by the serving and sharded-serving gates. Returns true when
// any cell regressed or is missing from the fresh report.
func gateThroughput(kind, baselinePath string, baseCPUs, freshCPUs int, maxRatio float64, base, fresh []throughputCell) bool {
	freshByKey := make(map[string]throughputCell, len(fresh))
	for _, c := range fresh {
		freshByKey[c.key] = c
	}
	width := 0
	for _, b := range base {
		if len(b.label) > width {
			width = len(b.label)
		}
	}
	fmt.Printf("perfgate: %s baseline %s (%d cpus) vs fresh (%d cpus), tolerance %.2fx\n",
		kind, baselinePath, baseCPUs, freshCPUs, maxRatio)
	failed := false
	for _, b := range base {
		f, ok := freshByKey[b.key]
		if !ok {
			fmt.Printf("  %-*s MISSING from fresh report\n", width, b.label)
			failed = true
			continue
		}
		allowed := maxRatio * parallelismPenalty(b.clients, baseCPUs, freshCPUs)
		ratio := b.ops / f.ops
		verdict := "ok"
		if ratio > allowed {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("  %-*s base %.0f ops/s  fresh %.0f ops/s  ratio %.2fx  allowed %.2fx  %s\n",
			width, b.label, b.ops, f.ops, ratio, allowed, verdict)
	}
	return failed
}

// gateServe compares the serving report per strategy × readers × mix
// cell on applied ops/sec — the cell set includes the 90/10
// insert/delete mix, so retraction throughput is gated exactly like
// insert throughput. Returns true when any cell regressed.
func gateServe(baselinePath, freshPath string, maxRatio float64) bool {
	base, err := loadReport[bench.ServeReport](baselinePath, func(r *bench.ServeReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.ServeReport](freshPath, func(r *bench.ServeReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("serve", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("serve", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))
	// The cell's client load is writers + readers concurrent goroutines;
	// a host that cannot run them in parallel gets the usual slack.
	cells := func(cs []bench.ServeCell) []throughputCell {
		out := make([]throughputCell, len(cs))
		for i, c := range cs {
			out[i] = throughputCell{
				key:     fmt.Sprintf("%s|%d|%g", c.Strategy, c.Readers, c.DeleteFrac),
				label:   fmt.Sprintf("%s readers=%d del=%.0f%%", c.Strategy, c.Readers, 100*c.DeleteFrac),
				ops:     opsPerSec(c),
				clients: c.Writers + c.Readers,
			}
		}
		return out
	}
	return gateThroughput("serve", baselinePath, base.CPUs, fresh.CPUs, maxRatio, cells(base.Cells), cells(fresh.Cells))
}

// gateShard compares the sharded-serving report per strategy ×
// shard-count × variant × mix cell on applied ops/sec. The cell set
// spans shards 1, 2, and 4 plus the plain-server baseline, so a
// regression in the shard router, the merged read path, or the Shards=1
// fast path all trip the gate. Returns true when any cell regressed.
func gateShard(baselinePath, freshPath string, maxRatio float64) bool {
	base, err := loadReport[bench.ShardReport](baselinePath, func(r *bench.ShardReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.ShardReport](freshPath, func(r *bench.ShardReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("shard", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("shard", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))
	// The cell's client load is the producers and readers plus one
	// writer goroutine per shard.
	cells := func(cs []bench.ShardCell) []throughputCell {
		out := make([]throughputCell, len(cs))
		for i, c := range cs {
			out[i] = throughputCell{
				key:     fmt.Sprintf("%s|%d|%s|%g", c.Strategy, c.Shards, c.Variant, c.DeleteFrac),
				label:   fmt.Sprintf("%s shards=%d %s del=%.0f%%", c.Strategy, c.Shards, c.Variant, 100*c.DeleteFrac),
				ops:     c.OpsPerSec,
				clients: c.Writers + c.Readers + c.Shards,
			}
		}
		return out
	}
	return gateThroughput("shard", baselinePath, base.CPUs, fresh.CPUs, maxRatio, cells(base.Cells), cells(fresh.Cells))
}

// gateModels compares the model-zoo report per model-kind × strategy
// cell on snapshot trainings/sec. Training is single-threaded, so no
// parallelism penalty applies (clients = 1). Returns true when any cell
// regressed.
func gateModels(baselinePath, freshPath string, maxRatio float64) bool {
	base, err := loadReport[bench.ModelsReport](baselinePath, func(r *bench.ModelsReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.ModelsReport](freshPath, func(r *bench.ModelsReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("models", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("models", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))
	cells := func(cs []bench.ModelCell) []throughputCell {
		out := make([]throughputCell, len(cs))
		for i, c := range cs {
			out[i] = throughputCell{
				key:     fmt.Sprintf("%s|%s", c.Kind, c.Strategy),
				label:   fmt.Sprintf("%s %s", c.Kind, c.Strategy),
				ops:     c.TrainsPerSec,
				clients: 1,
			}
		}
		return out
	}
	return gateThroughput("models", baselinePath, base.CPUs, fresh.CPUs, maxRatio, cells(base.Cells), cells(fresh.Cells))
}

// gateCatZoo compares the categorical-zoo report per kind × strategy ×
// payload cell: the "ingest" cells gate cofactor maintenance throughput
// and the model cells gate snapshot trainings/sec, so both halves of
// the categorical pipeline — statistics production and consumption —
// are regression-gated. Loading and training are single-threaded at the
// cell level (clients = 1). Returns true when any cell regressed.
func gateCatZoo(baselinePath, freshPath string, maxRatio float64) bool {
	base, err := loadReport[bench.CatZooReport](baselinePath, func(r *bench.CatZooReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.CatZooReport](freshPath, func(r *bench.CatZooReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("catzoo", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("catzoo", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))
	cells := func(cs []bench.CatZooCell) []throughputCell {
		out := make([]throughputCell, len(cs))
		for i, c := range cs {
			out[i] = throughputCell{
				key:     fmt.Sprintf("%s|%s|%s", c.Kind, c.Strategy, c.Payload),
				label:   fmt.Sprintf("%s %s %s", c.Kind, c.Strategy, c.Payload),
				ops:     c.OpsPerSec,
				clients: 1,
			}
		}
		return out
	}
	return gateThroughput("catzoo", baselinePath, base.CPUs, fresh.CPUs, maxRatio, cells(base.Cells), cells(fresh.Cells))
}

// gatePlan compares the planning report per mode cell (static, greedy,
// replanned) on ingest ops/sec, and additionally asserts the ordering
// claim the planning layer exists for: on the skew-inverted workload,
// the fresh greedy and replanned cells must not fall behind the fresh
// static cell — a planner that stops helping is a regression even if
// every absolute rate held. Returns true when any cell regressed.
func gatePlan(baselinePath, freshPath string, maxRatio float64) bool {
	base, err := loadReport[bench.PlanReport](baselinePath, func(r *bench.PlanReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.PlanReport](freshPath, func(r *bench.PlanReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("plan", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("plan", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))
	cells := func(cs []bench.PlanCell) []throughputCell {
		out := make([]throughputCell, len(cs))
		for i, c := range cs {
			out[i] = throughputCell{
				key:     c.Mode,
				label:   fmt.Sprintf("%s (root %s)", c.Mode, c.Root),
				ops:     c.OpsPerSec,
				clients: 2, // two writer clients per cell
			}
		}
		return out
	}
	failed := gateThroughput("plan", baselinePath, base.CPUs, fresh.CPUs, maxRatio, cells(base.Cells), cells(fresh.Cells))
	byMode := make(map[string]bench.PlanCell, len(fresh.Cells))
	for _, c := range fresh.Cells {
		byMode[c.Mode] = c
	}
	static, okS := byMode["static"]
	for _, mode := range []string{"greedy", "replanned"} {
		c, ok := byMode[mode]
		if !ok || !okS {
			continue
		}
		if c.OpsPerSec < static.OpsPerSec {
			fmt.Printf("  ordering: %s %.0f ops/s fell behind static %.0f ops/s on the skew-inverted stream  FAIL\n",
				mode, c.OpsPerSec, static.OpsPerSec)
			failed = true
		} else {
			fmt.Printf("  ordering: %s %.0f ops/s ≥ static %.0f ops/s  ok\n", mode, c.OpsPerSec, static.OpsPerSec)
		}
	}
	return failed
}

// gateObs gates the observability benchmark twice over: the
// instrumented ingest rate must not regress against the committed
// baseline (the usual throughput tolerance), and the fresh report's
// measured overhead ratio — uninstrumented best over instrumented best —
// must stay under maxObsOverhead, so instrumentation that creeps onto
// the hot path (an allocation per op, a lock on the update) fails the
// build even when absolute throughput still clears the noisy-runner
// tolerance. Returns true when either check fails.
func gateObs(baselinePath, freshPath string, maxRatio, maxObsOverhead float64) bool {
	base, err := loadReport[bench.ObsReport](baselinePath, func(r *bench.ObsReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.ObsReport](freshPath, func(r *bench.ObsReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("obs", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("obs", reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env))
	// Two cells per report: each variant's best rep. The two writer
	// clients are the cell's parallel load.
	cells := func(r *bench.ObsReport) []throughputCell {
		return []throughputCell{
			{key: "instrumented", label: "instrumented", ops: r.BestInstrumented, clients: 2},
			{key: "uninstrumented", label: "uninstrumented", ops: r.BestUninstrumented, clients: 2},
		}
	}
	failed := gateThroughput("obs", baselinePath, reportCPUs(base.CPUs, base.Env), reportCPUs(fresh.CPUs, fresh.Env), maxRatio, cells(base), cells(fresh))
	if fresh.OverheadRatio > maxObsOverhead {
		fmt.Printf("  overhead: instrumented ingest %.3fx slower than uninstrumented, bound %.2fx  FAIL\n",
			fresh.OverheadRatio, maxObsOverhead)
		failed = true
	} else {
		fmt.Printf("  overhead: instrumented ingest %.3fx of uninstrumented ≤ %.2fx  ok\n",
			fresh.OverheadRatio, maxObsOverhead)
	}
	return failed
}

// opsPerSec reads a cell's applied-op throughput, falling back to the
// insert rate for reports written before the churn cells existed.
func opsPerSec(c bench.ServeCell) float64 {
	if c.OpsPerSec > 0 {
		return c.OpsPerSec
	}
	return c.InsertsPerSec
}

// gateScale compares the multi-core ingest report per strategy ×
// GOMAXPROCS × shard-count × mix cell on applied ops/sec, then enforces
// the scaling-efficiency floor on the fresh report: on a host with 4+
// CPUs, the best strategy's 1→4 shard speedup (procs = shards,
// insert-only) must reach minScale — the check that catches a change
// serializing the shard writers on each other without slowing any
// single cell enough to trip the throughput tolerance. Hosts with fewer than 4 CPUs cannot
// exhibit 4-way scaling, so the floor is reported but not enforced
// there. Returns true when any cell regressed or the floor is missed.
func gateScale(baselinePath, freshPath string, maxRatio, minScale float64) bool {
	base, err := loadReport[bench.ScaleReport](baselinePath, func(r *bench.ScaleReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport[bench.ScaleReport](freshPath, func(r *bench.ScaleReport) int { return len(r.Cells) })
	if err != nil {
		fatal(err)
	}
	ensureComparable("scale", base.Dataset, base.SF, base.Seed, fresh.Dataset, fresh.SF, fresh.Seed)
	cpuGuard("scale", base.Env.CPUs, fresh.Env.CPUs)
	// The cell's parallel load is the four producers plus one writer and
	// Workers pool goroutines (first-order scans only) per shard.
	cells := func(cs []bench.ScaleCell) []throughputCell {
		out := make([]throughputCell, len(cs))
		for i, c := range cs {
			out[i] = throughputCell{
				key:     fmt.Sprintf("%s|%d|%d|%g", c.Strategy, c.Procs, c.Shards, c.DeleteFrac),
				label:   fmt.Sprintf("%s procs=%d shards=%d del=%.0f%%", c.Strategy, c.Procs, c.Shards, 100*c.DeleteFrac),
				ops:     c.OpsPerSec,
				clients: 4 + c.Shards*(1+c.Workers),
			}
		}
		return out
	}
	failed := gateThroughput("scale", baselinePath, base.Env.CPUs, fresh.Env.CPUs, maxRatio, cells(base.Cells), cells(fresh.Cells))
	return gateScaleEfficiency(fresh, minScale) || failed
}

// gateScaleEfficiency enforces the 1→4 shard scaling floor recorded in
// a fresh scale report. Returns true when the floor is missed on a host
// that could have met it.
func gateScaleEfficiency(fresh *bench.ScaleReport, minScale float64) bool {
	bestName, best := "", 0.0
	for name, s := range fresh.Speedup1to4 {
		if s > best {
			bestName, best = name, s
		}
	}
	if fresh.Env.CPUs < 4 {
		fmt.Printf("  scaling floor: host has %d cpus, 4-way scaling unobservable — floor %.2fx reported, not enforced (best: %s %.2fx)\n",
			fresh.Env.CPUs, minScale, bestName, best)
		return false
	}
	if best < minScale {
		fmt.Printf("  scaling floor: best 1→4 shard speedup %s %.2fx below floor %.2fx  FAIL\n", bestName, best, minScale)
		return true
	}
	fmt.Printf("  scaling floor: best 1→4 shard speedup %s %.2fx ≥ %.2fx  ok\n", bestName, best, minScale)
	return false
}

// cpuGuard refuses to gate reports recorded on hosts with differing CPU
// counts: throughput measured on different machine shapes is not
// comparable cell for cell, and normalizing the difference away lets
// real regressions hide inside the slack. PERF_GATE_ALLOW_CPU_MISMATCH=1
// overrides for deliberate cross-host comparisons — then the
// parallelismPenalty normalization applies as before. A zero count
// (reports written before the environment was recorded) is not guarded.
func cpuGuard(kind string, baseCPUs, freshCPUs int) {
	if baseCPUs == 0 || freshCPUs == 0 || baseCPUs == freshCPUs {
		return
	}
	if os.Getenv("PERF_GATE_ALLOW_CPU_MISMATCH") == "1" {
		fmt.Printf("perfgate: %s baseline has %d cpus, fresh %d — comparing anyway (PERF_GATE_ALLOW_CPU_MISMATCH=1)\n",
			kind, baseCPUs, freshCPUs)
		return
	}
	fatal(fmt.Errorf("%s reports are not comparable: baseline recorded on %d cpus, fresh on %d — rerun the baseline on this host, or set PERF_GATE_ALLOW_CPU_MISMATCH=1 to compare with parallelism normalization",
		kind, baseCPUs, freshCPUs))
}

// reportCPUs reads a report's recorded CPU count, preferring the full
// environment record over the legacy top-level field.
func reportCPUs(legacy int, env bench.Environment) int {
	if env.CPUs > 0 {
		return env.CPUs
	}
	return legacy
}

// parallelismPenalty is the extra slowdown allowed when the fresh host
// can give a cell less effective parallelism than the baseline host did:
// p = min(workers, cpus) per host, and a cell that had p_base ways of
// running is allowed to take p_base/p_fresh times longer on the smaller
// runner. Never below 1 — bigger runners get no extra slack.
func parallelismPenalty(workers, baseCPUs, freshCPUs int) float64 {
	pBase := min(workers, max(baseCPUs, 1))
	pFresh := min(workers, max(freshCPUs, 1))
	if pFresh >= pBase {
		return 1
	}
	return float64(pBase) / float64(pFresh)
}

// ensureComparable refuses to gate reports generated from different
// datasets, scale factors, or seeds.
func ensureComparable(kind, baseDS string, baseSF float64, baseSeed uint64, freshDS string, freshSF float64, freshSeed uint64) {
	if baseSF != freshSF || baseSeed != freshSeed || baseDS != freshDS {
		fatal(fmt.Errorf("%s reports are not comparable: baseline is %s sf=%v seed=%d, fresh is %s sf=%v seed=%d",
			kind, baseDS, baseSF, baseSeed, freshDS, freshSF, freshSeed))
	}
}

// loadReport reads and decodes one benchmark report, rejecting files
// with no recorded cells (size reports how many a report carries).
func loadReport[T any](path string, size func(*T) int) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(T)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if size(rep) == 0 {
		return nil, fmt.Errorf("%s: no cells recorded", path)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
	os.Exit(1)
}
