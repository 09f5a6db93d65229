package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memStats is the part of runtime.MemStats the benchmark reads, from
// this process or, over HTTP, from the MemStats dump that borg-serve's
// /debug/pprof/heap?debug=1 ends with.
type memStats struct {
	Mallocs       uint64
	TotalAlloc    uint64
	HeapAlloc     uint64
	NumGC         uint32
	GCCPUFraction float64
	PauseNs       [256]uint64
}

func readMemStats() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{Mallocs: m.Mallocs, TotalAlloc: m.TotalAlloc, HeapAlloc: m.HeapAlloc,
		NumGC: m.NumGC, GCCPUFraction: m.GCCPUFraction, PauseNs: m.PauseNs}
}

// parseMemStats reads the "# Name = value" lines of a heap profile
// written with debug=1.
func parseMemStats(r io.Reader) (memStats, error) {
	var m memStats
	seen := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		var err error
		switch name {
		case "Mallocs":
			m.Mallocs, err = strconv.ParseUint(val, 10, 64)
		case "TotalAlloc":
			m.TotalAlloc, err = strconv.ParseUint(val, 10, 64)
		case "HeapAlloc":
			m.HeapAlloc, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 32)
			m.NumGC = uint32(n)
		case "GCCPUFraction":
			m.GCCPUFraction, err = strconv.ParseFloat(val, 64)
		case "PauseNs":
			for i, f := range strings.Fields(strings.Trim(val, "[]")) {
				if i < len(m.PauseNs) {
					m.PauseNs[i], err = strconv.ParseUint(f, 10, 64)
				}
			}
		default:
			continue
		}
		if err != nil {
			return m, fmt.Errorf("heap profile: %s: %w", name, err)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if seen < 6 {
		return m, fmt.Errorf("heap profile: found %d of 6 MemStats fields", seen)
	}
	return m, nil
}

// gcPauses returns the GC pauses between two readings, in µs. The
// runtime keeps the last 256; older ones in a longer interval are lost.
func gcPauses(before, after memStats) []float64 {
	var out []float64
	for n := before.NumGC; n < after.NumGC && len(out) < len(after.PauseNs); n++ {
		out = append(out, float64(after.PauseNs[n%256])/1e3)
	}
	return out
}

// peakRSSMB reads VmHWM, the peak resident set of process pid.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// rtLayer fills the Go-runtime rows of the layer table from readings
// taken at the start and the end of the measured time.
func rtLayer(res *result, before, after memStats, ops int64) {
	pauses := gcPauses(before, after)
	maxPause := 0.0
	for _, p := range pauses {
		if p > maxPause {
			maxPause = p
		}
	}
	res.layer("rt.gc_cpu_share", after.GCCPUFraction, 1)
	res.layer("rt.gc_pause_max_us", maxPause, len(pauses))
	res.layer("rt.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	res.layer("rt.heap_mb", float64(after.HeapAlloc)/(1<<20), 1)
	if ops > 0 {
		res.layer("rt.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(ops), int(ops))
	}
}
