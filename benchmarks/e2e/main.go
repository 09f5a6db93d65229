// Command e2e is the repository's end-to-end benchmark: five long-running
// workloads over the serving path and the batch path, each measured
// untraced for the end-to-end metrics and traced for a per-layer table,
// with every layer timed from outside — around calls into its public
// functions and from the public metrics registry. README.md has the
// metric, workload and layer tables.
//
//	e2e -workload NAME -seed N -seconds S -trace 0|1   one run; the last
//	                                line of output is the result as JSON
//	e2e [-seconds S] [-trace-seconds T] [-out DIR]     every workload, each run in
//	                                a child process, into DIR/results.json
//	e2e -compare a.json b.json      two result sets against the bounds
//	e2e -smoke ...                  tiny sizes, about a second per run
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// sizes fixes how large every workload is. They are constants of the
// benchmark, not derived at run time: two commits are compared on the
// same inputs and the same offered load.
type sizes struct {
	warm   time.Duration // warm-up of the continuous workloads, not measured
	setups int           // set-ups timed per untraced run; setup_s is their median

	retailerSF float64
	// pacedRate is the open-loop rate in ops/s: about 40% of what
	// retailer_churn sustains on the reference host.
	pacedRate  int
	trainEvery time.Duration // retailer_paced's reader; retailer_churn's runs at a fifth of it

	tenantStores, tenantBase, tenantRoundOps, tenantWarmRounds int
	// linregIters bounds the categorical linear regression of a zoo
	// round, which runs out its default budget of 50 000 iterations
	// (about 1 s) at this size without converging.
	linregIters int

	httpStores, httpItems, httpSales, httpBase int

	batchSF    float64
	batchDepth int

	replayOps int // ops of one layer replay
}

var fullSizes = sizes{
	warm: 2 * time.Second, setups: 3,
	retailerSF: 1, pacedRate: 25000, trainEvery: 50 * time.Millisecond,
	tenantStores: 200, tenantBase: 40000, tenantRoundOps: 20000, tenantWarmRounds: 4, linregIters: 5000,
	httpStores: 200, httpItems: 50, httpSales: 200000, httpBase: 50000,
	batchSF: 0.35, batchDepth: 3,
	replayOps: 50000,
}

var smokeSizes = sizes{
	warm: 100 * time.Millisecond, setups: 2,
	retailerSF: 0.05, pacedRate: 5000, trainEvery: 20 * time.Millisecond,
	tenantStores: 16, tenantBase: 2000, tenantRoundOps: 1000, tenantWarmRounds: 1, linregIters: 200,
	httpStores: 8, httpItems: 10, httpSales: 4000, httpBase: 1000,
	batchSF: 0.02, batchDepth: 2,
	replayOps: 2000,
}

// runCtx is one run of one workload.
type runCtx struct {
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	workers  int    // CPUs: the worker count of every pool
	out      string // where trace files go
	serveBin string
	tr       *tracer // nil when untraced
	root     int     // the run's root span
	res      *result
	registry any // the program's metrics registry at the end of a traced run
}

func (rc *runCtx) measured() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// workload is one entry of BENCHMARK.json's workloads. listed is false
// for batch_retailer, which the full run includes but the acceptance
// driver does not: it has no ingest, so it cannot report the serving
// metrics every listed workload must.
type workload struct {
	name   string
	listed bool
	run    func(*runCtx) error
}

var workloads = []workload{
	{"retailer_churn", true, func(rc *runCtx) error { return runLive(rc, 0, 5*rc.sz.trainEvery) }},
	{"retailer_paced", true, func(rc *runCtx) error { return runLive(rc, rc.sz.pacedRate, rc.sz.trainEvery) }},
	{"tenant_cofactor_2shard", true, runTenant},
	{"http_covar", true, runHTTP},
	{"batch_retailer", false, runBatch},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process and print its result")
	seed := fs.Uint64("seed", 2020, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds of an untraced run (a traced one with -workload)")
	traceSeconds := fs.Float64("trace-seconds", 8, "measured seconds of the traced runs of a full run")
	trace := fs.Int("trace", 0, "with -workload: 1 records spans and reports the layer table in place of the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "e2e"), "directory for trace files and results.json")
	serveBin := fs.String("serve-bin", filepath.Join(".bench_build", "borg-serve"), "borg-serve binary built from this tree, for http_covar")
	smoke := fs.Bool("smoke", false, "tiny sizes: checks the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare the two result sets named as arguments against BENCHMARK.json's bounds")
	bench := fs.String("benchmark-json", "BENCHMARK.json", "where -compare reads the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
		// A smoke run is about a second a run unless told otherwise.
		set := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["seconds"] {
			*seconds = 1
		}
		if !set["trace-seconds"] {
			*traceSeconds = 1
		}
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2e: -compare takes two result files")
			return 2
		}
		var regressed bool
		regressed, err = compareFiles(stdout, *bench, fs.Arg(0), fs.Arg(1))
		if err == nil && regressed {
			return 1
		}
	case *name != "":
		var res *result
		res, err = runOne(*name, *seed, *seconds, *trace == 1, sz, *smoke, *out, *serveBin)
		if err == nil {
			err = res.print(stdout)
		}
	default:
		err = runAll(stdout, stderr, *seed, *seconds, *traceSeconds, *smoke, *out, *serveBin)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process. A run whose outputs are
// wrong, or in which an op failed, returns an error and no result.
func runOne(name string, seed uint64, seconds float64, trace bool, sz sizes, smoke bool, out, serveBin string) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	rc := &runCtx{seed: seed, seconds: seconds, trace: trace, sz: sz, workers: runtime.GOMAXPROCS(0), out: out, serveBin: serveBin}
	rc.res = &result{Workload: name, Seed: seed, Trace: trace, Seconds: seconds, Smoke: smoke, Env: readEnv(), Metrics: make(map[string]metric)}
	if trace {
		rc.tr = newTracer()
		rc.root = rc.tr.begin(0, name)
	}
	if err := w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if rc.res.Failed != 0 {
		return nil, fmt.Errorf("%s: %d of %d ops failed", name, rc.res.Failed, rc.res.Attempted)
	}
	rc.res.Correct = true
	if trace {
		rc.tr.end(rc.root)
		rc.res.layer("trace.spans", float64(len(rc.tr.spans)), 1)
		path, err := rc.tr.write(out, traceFile{Workload: name, Seed: seed, Registry: rc.registry})
		if err != nil {
			return nil, err
		}
		rc.res.TraceFile = path
	}
	if w.listed {
		if err := rc.res.finish(); err != nil {
			return nil, err
		}
	}
	return rc.res, nil
}

// resultSet is what a full run writes and -compare reads.
type resultSet struct {
	Env     env       `json:"env"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
	// TraceOverhead is untraced over traced ingest_ops_s per workload.
	TraceOverhead map[string]float64 `json:"trace_overhead_ratio"`
}

// runAll runs every workload, untraced and then traced, each run in a
// fresh child process so that heap, GC state and peak RSS of one run do
// not leak into the next.
func runAll(stdout, stderr io.Writer, seed uint64, seconds, traceSeconds float64, smoke bool, out, serveBin string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: readEnv(), Seed: seed, Seconds: seconds, TraceOverhead: make(map[string]float64)}
	for _, w := range workloads {
		var untraced *result
		for _, trace := range []bool{false, true} {
			secs := seconds
			if trace {
				secs = traceSeconds
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-out", out, "-serve-bin", serveBin}
			if trace {
				args = append(args, "-trace", "1")
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			var buf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &buf, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, trace, err)
			}
			full, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
			res := new(result)
			if err := json.Unmarshal(full, res); err != nil {
				return fmt.Errorf("%s: reading the child's result: %w", w.name, err)
			}
			set.Runs = append(set.Runs, res)
			printResult(stdout, res)
			if !trace {
				untraced = res
			} else if t := res.Metrics["trace.ingest_ops_s"].Value; t > 0 {
				set.TraceOverhead[w.name] = untraced.Metrics["ingest_ops_s"].Value / t
				fmt.Fprintf(stdout, "  %-32s %12.4f  ratio   untraced / traced ingest_ops_s\n", "trace_overhead_ratio", set.TraceOverhead[w.name])
			}
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "results.json")
	fmt.Fprintln(stdout, "results:", path)
	return os.WriteFile(path, b, 0o644)
}

// printResult lists every metric of one run by name, with its unit,
// direction, spread and sample count.
func printResult(w io.Writer, r *result) {
	kind, list := "end to end", endToEnd
	if r.Trace {
		kind, list = "per layer", perLayer
	}
	fmt.Fprintf(w, "%s, %s, %gs measured: attempted_ops %d, failed_ops %d, failed_share %g\n",
		r.Workload, kind, r.Seconds, r.Attempted, r.Failed, r.FailedShare)
	seen := make(map[string]bool)
	row := func(name string, m metric) {
		fmt.Fprintf(w, "  %-32s %12.4f  %-9s %-6s better  iqr %.4g  n %d\n", name, m.Value, m.Unit, m.Better, m.IQR, m.N)
	}
	unused := 0
	for _, d := range list {
		if m, ok := r.Metrics[d.Name]; ok {
			seen[d.Name] = true
			if m.Value == 0 && m.N == 0 {
				unused++ // a layer this workload does not exercise
				continue
			}
			row(d.Name, m)
		}
	}
	var own []string // batch_retailer's
	for name := range r.Metrics {
		if !seen[name] {
			own = append(own, name)
		}
	}
	sort.Strings(own)
	for _, name := range own {
		row(name, r.Metrics[name])
	}
	if unused > 0 {
		fmt.Fprintf(w, "  %d layer metrics this workload does not exercise read 0\n", unused)
	}
	for _, f := range r.Flags {
		fmt.Fprintln(w, "  flag:", f)
	}
}
