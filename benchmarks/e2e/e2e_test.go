package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFreshnessProbeAgainstKnownDelay drives the probe against a fake
// sink that makes every op visible a known delay after it was due, and
// polls on a fake clock: the probe's median may over-state the delay by
// at most the polling interval, which it must also report.
func TestFreshnessProbeAgainstKnownDelay(t *testing.T) {
	const (
		delay = 3730 * time.Microsecond
		poll  = 100 * time.Microsecond
		burst = time.Millisecond
	)
	p := newFreshProbe(1 << 10)
	var lat []float64
	var units uint64
	nextBurst := burst
	for now := poll; now < 2*time.Second; now += poll {
		for ; nextBurst <= now; nextBurst += burst {
			units += 25
			if !p.mark(units, nextBurst) {
				t.Fatal("the probe's ring overflowed")
			}
		}
		// The sink: what was due at or before now-delay is visible.
		visible := uint64(0)
		if now >= delay+burst {
			visible = 25 * uint64((now-delay)/burst)
		}
		p.poll(visible, now, func(_, l time.Duration) { lat = append(lat, float64(l)) })
	}
	sort.Float64s(lat)
	p50 := time.Duration(quantile(lat, 0.5))
	if len(lat) < 1900 || p50 < delay || p50 > delay+poll {
		t.Fatalf("p50 %v over %d samples, want within [%v, %v]", p50, len(lat), delay, delay+poll)
	}
	sort.Float64s(p.gaps)
	res := quantile(p.gaps, 0.5)
	t.Logf("freshness_resolution_us %.0f, p50 over-stated by %v", res, p50-delay)
	if res != float64(poll/time.Microsecond) {
		t.Fatalf("reported resolution %v µs, polled every %v", res, poll)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestParseMemStats(t *testing.T) {
	m, err := parseMemStats(strings.NewReader(`heap profile: 1: 16 [2: 32] @ heap/1048576
# runtime.MemStats
# Alloc = 100
# TotalAlloc = 4096
# Mallocs = 77
# HeapAlloc = 2048
# PauseNs = [1500 2500 0]
# NumGC = 2
# GCCPUFraction = 0.0125
`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Mallocs != 77 || m.TotalAlloc != 4096 || m.HeapAlloc != 2048 || m.NumGC != 2 || m.GCCPUFraction != 0.0125 || m.PauseNs[1] != 2500 {
		t.Fatalf("parsed %+v", m)
	}
	if p := gcPauses(memStats{}, m); len(p) != 2 || p[0] != 1.5 || p[1] != 2.5 {
		t.Fatalf("pauses %v", p)
	}
	if _, err := parseMemStats(strings.NewReader("# Mallocs = 1\n")); err == nil {
		t.Fatal("a profile without MemStats parsed")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to what the program reports.
func TestBenchmarkJSON(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || seen[d.Name] {
			t.Errorf("metric %+v is malformed or repeated", d)
		}
		seen[d.Name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, defs.go %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range bj.EndToEnd {
		check(d.metricDef)
		if d.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] is %+v, defs.go has %+v", i, d.metricDef, endToEnd[i])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for i, d := range bj.PerLayer {
		check(d)
		if d != perLayer[i] {
			t.Errorf("per_layer[%d] is %+v, defs.go has %+v", i, d, perLayer[i])
		}
	}
	var listed []string
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w.name)
		}
	}
	if len(bj.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(listed))
	}
	for i, w := range bj.Workloads {
		if w.Name != listed[i] || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, e env, ingest, iqr float64) string {
		set := resultSet{Env: e, Seed: 1, Seconds: 10}
		for _, w := range workloads {
			if !w.listed {
				continue
			}
			r := &result{Workload: w.name, Metrics: make(map[string]metric)}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metric{Value: 100, Unit: d.Unit, Better: d.Better}
			}
			r.Metrics["ingest_ops_s"] = metric{Value: ingest, IQR: iqr, Unit: "ops/s", Better: "higher"}
			set.Runs = append(set.Runs, r)
		}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	e := env{CPUs: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	base := mk("a.json", e, 1000, 5)
	for _, tc := range []struct {
		name      string
		ingest    float64
		iqr       float64
		regressed bool
		want      string
	}{
		{"same", 1000, 5, false, " ok"},
		{"better", 2000, 5, false, " ok"},
		{"halved", 500, 5, true, "regressed"},
		{"noisy", 500, 400, false, "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, bench, base, mk(tc.name+".json", e, tc.ingest, tc.iqr))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed %v, output\n%s", tc.name, regressed, out.String())
		}
	}
	other := e
	other.CPUs = 8
	if _, err := compareFiles(&bytes.Buffer{}, bench, base, mk("cpus.json", other, 1000, 5)); err == nil {
		t.Error("result sets from 2 and 8 CPUs were compared")
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes —
// with a borg-serve built from this tree and spawned on a free loopback
// port — and holds each result to the schema BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns borg-serve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "borg-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "borg/cmd/borg-serve").CombinedOutput(); err != nil {
		t.Fatalf("building borg-serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(w.name, 11, 0.5, trace, smokeSizes, true, dir, bin)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok || len(last) != 4 {
					t.Fatalf("%s: the last line has keys %v", w.name, last)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s: correct %v, attempted %d, failed %d", w.name, res.Correct, res.Attempted, res.Failed)
			}
			if !w.listed {
				continue
			}
			want := endToEnd
			if trace {
				want = perLayer
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (trace %v): metric %s is %+v", w.name, trace, d.Name, m)
				}
			}
		}
	}
}
