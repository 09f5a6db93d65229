package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// env is recorded with every result; -compare refuses two result sets
// whose CPUs, GOMAXPROCS or Go version differ.
type env struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1_at_start"`
}

func readEnv() env {
	e := env{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	// Only when run from the root of a git work tree; the acceptance
	// checkout is not one, and git is not left to search above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// result is everything one run of one workload reports.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Smoke    bool    `json:"smoke,omitempty"`
	Env      env     `json:"env"`
	// Attempted counts every op sent; Failed those refused, answered
	// with a non-2xx status or an error, or failed by the writer. A
	// failed op counts as missing every latency.
	Attempted   int64   `json:"attempted_ops"`
	Failed      int64   `json:"failed_ops"`
	FailedShare float64 `json:"failed_share"`
	// Correct is the oracle's verdict; a run that is not correct prints
	// no metrics.
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
	// Flags are findings that do not fail the run, such as writer time
	// the stage histograms do not account for.
	Flags     []string `json:"flags,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

func (r *result) put(list []metricDef, name string, m metric) {
	d := defOf(list, name)
	m.Unit, m.Better = d.Unit, d.Better
	r.Metrics[name] = m
}

// e2e sets an end-to-end metric; untraced runs report these.
func (r *result) e2e(name string, m metric) {
	if !r.Trace {
		r.put(endToEnd, name, m)
	}
}

// layer sets a row of the layer table from a single reading over n
// samples; traced runs report these.
func (r *result) layer(name string, v float64, n int) {
	if r.Trace {
		r.put(perLayer, name, metric{Value: v, N: n})
	}
}

func (r *result) flag(format string, a ...any) {
	r.Flags = append(r.Flags, fmt.Sprintf(format, a...))
}

// finish checks that the run reports what BENCHMARK.json promises: an
// untraced run every end-to-end metric, none of them 0; a traced run
// every row of the layer table, 0 where the workload does not use the
// layer.
func (r *result) finish() error {
	r.FailedShare = 0
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	if r.Trace {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.put(perLayer, d.Name, metric{})
			}
		}
		return nil
	}
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.Name]; !ok || !(m.Value > 0) {
			return fmt.Errorf("%s: end-to-end metric %s is missing or not positive (%v)", r.Workload, d.Name, m.Value)
		}
	}
	return nil
}

// print writes the full result on one line and, as the last line, the
// short form the acceptance driver reads.
func (r *result) print(w io.Writer) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]short, len(r.Metrics))}
	for name, m := range r.Metrics {
		last.Metrics[name] = short{m.Value, m.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, b)
	return err
}
