package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the program under test is not instrumented. Counts holds
// the work done inside the span (ops, rows, bytes, epochs).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. A nil tracer records nothing, so an untraced run
// pays one pointer test per span site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id; counts come in name, value pairs.
func (t *tracer) end(id int, counts ...any) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = make(map[string]int64)
		}
		s.Counts[counts[i].(string)] = counts[i+1].(int64)
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	// SelfS is the span time not covered by child spans.
	SelfS float64 `json:"self_s"`
}

// selfTimes sums, per span name, total time and self time: a span's
// duration minus the part of it its children cover. Children of one
// parent that run at the same time (two connections) may cover more
// than the parent lasts; self time is then 0, not negative.
func (t *tracer) selfTimes() []layerTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	by := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		lt.Spans++
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(self) / 1e9
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what a traced run writes to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Layers   []layerTime `json:"layers"`
	// Registry is the program's own metrics registry at the end of the
	// run: Metrics().Snapshot() in process, the metrics block of GET
	// /stats over HTTP — the histograms production scrapes.
	Registry any    `json:"registry"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f.Layers = t.selfTimes()
	f.Spans = t.spans
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
