package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first, second and third quartile of vs as
// Python's statistics.quantiles(vs, n=4) gives them (the "exclusive"
// method), so that a spread computed here is the one the acceptance
// check computes. It needs two values or more.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// medianIQR summarises the windows or rounds of one run.
func medianIQR(vs []float64) (median, iqr float64) {
	switch len(vs) {
	case 0:
		return 0, 0
	case 1:
		return vs[0], 0
	}
	q1, q2, q3 := quartiles(vs)
	return q2, q3 - q1
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// metric is one reported number with the evidence behind it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// IQR is the distance between the quartiles of Parts, the per-window
	// (or per-round) values whose median is Value; 0 for a single reading.
	IQR   float64   `json:"iqr"`
	Parts []float64 `json:"parts,omitempty"`
	// N is the number of samples behind Value (latencies, rounds, ops).
	N int `json:"n"`
}

// ofParts reports the median of per-window values.
func ofParts(parts []float64, n int) metric {
	m, iqr := medianIQR(parts)
	return metric{Value: m, IQR: iqr, Parts: parts, N: n}
}

// windows splits a continuous run into a warm-up, which is not measured,
// and equal windows; a metric is the median over the windows and its
// spread their inter-quartile range.
type windows struct {
	start time.Time
	warm  time.Duration
	each  time.Duration
	n     int
}

func newWindows(start time.Time, warm, measured time.Duration, n int) windows {
	return windows{start: start, warm: warm, each: measured / time.Duration(n), n: n}
}

// index is -1 during warm-up, the window number while measuring, and n
// once the run is over.
func (w windows) index(t time.Time) int {
	d := t.Sub(w.start) - w.warm
	if d < 0 {
		return -1
	}
	if i := int(d / w.each); i < w.n {
		return i
	}
	return w.n
}

func medianOf(vs []float64) float64 {
	m, _ := medianIQR(vs)
	return m
}

// samples collects latency samples per window.
type samples struct{ w [][]float64 }

func newSamples(n int) *samples { return &samples{w: make([][]float64, n)} }

func (s *samples) add(win int, v float64) {
	if win >= 0 && win < len(s.w) {
		s.w[win] = append(s.w[win], v)
	}
}

func (s *samples) count() int {
	n := 0
	for _, w := range s.w {
		n += len(w)
	}
	return n
}

// quantile reports the median over windows of each window's q-quantile.
// A percentile is only reported when every window has ten samples or
// more beyond it; otherwise ok is false.
func (s *samples) quantile(q float64) (m metric, ok bool) {
	parts := make([]float64, 0, len(s.w))
	ok = true
	for _, w := range s.w {
		sorted := append([]float64(nil), w...)
		sort.Float64s(sorted)
		if float64(len(sorted))*(1-q) < 10 {
			ok = false
		}
		if len(sorted) > 0 {
			parts = append(parts, quantile(sorted, q))
		}
	}
	return ofParts(parts, s.count()), ok && len(parts) == len(s.w)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
