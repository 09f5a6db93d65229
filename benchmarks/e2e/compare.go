package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json that -compare reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict applies one metric's bound to its value in two runs. b is
// "regressed" when it is worse than a by more than the bound, and
// "unresolved" when either run's own spread (the IQR over its windows or
// rounds) is wider than the bound: the two values then cannot be told
// apart, which is not the same as unchanged.
func verdict(a, b metric, better string, bound float64) (string, float64) {
	worse := (b.Value - a.Value) / a.Value
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.IQR > bound*a.Value || b.IQR > bound*b.Value:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints one row per end-to-end metric and workload for
// two result sets of full runs, and reports whether any row regressed.
// It refuses sets that were not made on the same machine shape, Go
// version, seed and run length: such numbers do not compare.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (regressed bool, err error) {
	var bj benchmarkJSON
	var a, b resultSet
	for path, v := range map[string]any{benchPath: &bj, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	ea, eb := a.Env, b.Env
	if ea.CPUs != eb.CPUs || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GoVersion != eb.GoVersion {
		return false, fmt.Errorf("the environments differ (cpus %d/%d, GOMAXPROCS %d/%d, Go %s/%s): not compared",
			ea.CPUs, eb.CPUs, ea.GOMAXPROCS, eb.GOMAXPROCS, ea.GoVersion, eb.GoVersion)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return false, fmt.Errorf("seed or run length differ (seed %d/%d, seconds %g/%g): not compared", a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	untraced := func(s resultSet) map[string]*result {
		m := make(map[string]*result)
		for _, r := range s.Runs {
			if !r.Trace {
				m[r.Workload] = r
			}
		}
		return m
	}
	ra, rb := untraced(a), untraced(b)
	fmt.Fprintf(w, "%-24s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, wl := range bj.Workloads {
		x, y := ra[wl.Name], rb[wl.Name]
		if x == nil || y == nil {
			return false, fmt.Errorf("workload %s is missing from a result set", wl.Name)
		}
		for _, d := range bj.EndToEnd {
			mx, okx := x.Metrics[d.Name]
			my, oky := y.Metrics[d.Name]
			if !okx || !oky {
				return false, fmt.Errorf("%s: metric %s is missing from a result set", wl.Name, d.Name)
			}
			v, worse := verdict(mx, my, d.Better, d.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-24s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wl.Name, d.Name, mx.Value, my.Value, 100*worse, 100*d.Bound, v)
		}
	}
	return regressed, nil
}
