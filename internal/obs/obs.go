// Package obs is the zero-dependency observability core of the serving
// stack: atomic counters and gauges, fixed-boundary log-scale latency
// histograms with quantile extraction, and a named registry that
// renders Prometheus text-format exposition — all on the standard
// library only, with allocation-free hot-path updates.
//
// The design splits the world into two cost classes:
//
//   - Updates (Counter.Inc/Add, Gauge.Set, Histogram.Observe) sit on
//     the ingest and publication hot paths of internal/serve and
//     internal/shard. Each is one or two uncontended atomic adds on
//     pre-resolved handles — no map lookups, no locks, no allocation
//     (pinned by testing.AllocsPerRun in the test suite), so a fully
//     instrumented pipeline adds only those adds to its hot path
//     (serve.Config.MetricsOff is the uninstrumented control arm).
//
//   - Reads (Registry.WriteExposition, Registry.Snapshot, histogram
//     quantiles) run at request rate, not only at scrape rate: borg-
//     serve's /stats embeds Registry.Snapshot. So both read every
//     histogram in place, into one stack array per call, and
//     Registry.Snapshot allocates only the slice it returns. A read is
//     not a consistent cut: each atomic is loaded independently, so
//     counters lag each other by in-flight updates, which is the
//     standard Prometheus contract.
//
// Histograms are log-scale with linear sub-buckets (the HdrHistogram
// bucketing scheme): values below 2^subBits land in exact unit
// buckets, larger values in one of 2^subBits sub-buckets of their
// octave, bounding relative quantile error by 2^-subBits (~3% at the
// default 5 sub-bucket bits) with a fixed 1888-bucket layout. Fixed
// boundaries make per-shard histograms mergeable by plain bucket
// addition: the fold of N shard histograms reports exactly the
// quantiles of the union stream, the same disjoint-union algebra the
// ring payloads use for statistics.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// subBits is the number of linear sub-bucket bits per octave: 32
// sub-buckets per power of two, bounding the relative error of a
// recorded value (and therefore of any extracted quantile) by 1/32.
const subBits = 5

// NumBuckets is the fixed histogram layout size: every int64 value ≥ 0
// maps into one of these buckets, so all histograms share boundaries
// and merge by bucket addition.
const NumBuckets = (64 - subBits) << subBits // 1888

// bucketOf maps a non-negative value to its bucket index. Values below
// 2^subBits get exact unit buckets; larger values share an octave
// sub-bucket with at most 2^-subBits relative rounding.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // floor(log2 v), ≥ subBits
	sub := (u >> (uint(exp) - subBits)) & (1<<subBits - 1)
	return (exp-subBits)<<subBits + int(sub) + (1 << subBits)
}

// BucketLower returns the smallest value that maps into bucket i — the
// value Quantile reports for ranks landing in that bucket. A recorded
// value equal to a bucket lower bound is therefore recovered exactly.
func BucketLower(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	i -= 1 << subBits
	exp := i>>subBits + subBits
	sub := i & (1<<subBits - 1)
	return (1<<subBits + int64(sub)) << (uint(exp) - subBits)
}

// Counter is a monotone atomic counter. The zero value is ready to
// use, but counters are normally created through Registry.Counter so
// they appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Allocation-free.
//
//borg:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Allocation-free.
//
//borg:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic float64 gauge. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Allocation-free.
//
//borg:noalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-boundary log-scale histogram of non-negative
// int64 observations (latencies in nanoseconds, batch sizes, …).
// Observe is safe for any number of concurrent writers and costs two
// uncontended atomic adds; readers take Snapshot and extract quantiles
// from the copy.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
// Allocation-free.
//
//borg:noalloc
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram state for reading. Concurrent writers
// may land between bucket loads; the copy is still a valid histogram
// of a superset/subset within in-flight updates (the usual scrape
// contract).
func (h *Histogram) Snapshot() HistSnapshot {
	return h.readInto(new([NumBuckets]uint64))
}

// readInto loads the histogram into counts and returns a snapshot over
// them: the one reader behind Snapshot, Registry.Snapshot and the
// exposition, which pass a stack array and so allocate nothing.
func (h *Histogram) readInto(counts *[NumBuckets]uint64) HistSnapshot {
	s := HistSnapshot{Counts: counts[:]}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a histogram, the unit of
// merging and quantile extraction.
type HistSnapshot struct {
	// Counts holds the per-bucket observation counts in the shared
	// fixed layout.
	Counts []uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the total of all observed values.
	Sum int64
}

// Merge folds other into s by bucket addition. Because all histograms
// share the fixed bucket boundaries, merging is associative and
// commutative, and quantiles of the merge equal quantiles of the
// concatenated observation streams (to bucket resolution) — per-shard
// histograms fold into exactly the global histogram.
//
//borg:vet-ok deadexport — benchmarks/e2e folds per-shard histograms with it
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]uint64, NumBuckets)
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Quantile returns the value at quantile q in [0, 1]: the lower bound
// of the bucket containing the ceil(q·Count)-th smallest observation
// (the 1st for q = 0). Observations that equal a bucket lower bound
// are recovered exactly; others round down by at most 2^-subBits
// relative. Returns 0 on an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			return BucketLower(i)
		}
	}
	return BucketLower(NumBuckets - 1)
}

// Labels name one series within a metric family (e.g. shard="2",
// kind="linreg"). Label sets are rendered in sorted key order, so two
// semantically equal sets address the same series.
type Labels map[string]string

// render flattens a label set into the {k="v",...} exposition form
// ("" for an empty set).
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind discriminates what a series holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one labelled instance within a family.
type series struct {
	labels    string // rendered label set, "" when unlabelled
	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram
}

// family is one named metric with shared help text and type across its
// labelled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label signatures in registration order
	series map[string]*series
}

// Registry is a named collection of metrics. Registration is
// idempotent — asking for an existing name+labels returns the same
// handle, which is how shards share one registry — and safe for
// concurrent use; handles are resolved once at construction time and
// then updated lock-free.
type Registry struct {
	mu       sync.RWMutex
	order    []string
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the family and series for name+labels,
// enforcing kind consistency within a family.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels) *series {
	sig := labels.render()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different type", name))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sig}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.histogram = &Histogram{}
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, kindCounter, labels).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, kindGauge, labels).gauge
}

// GaugeFunc registers a gauge evaluated lazily at scrape time — for
// readings that are views of live state (queue depth, epoch age,
// shard skew) rather than accumulated updates. Re-registering the same
// name+labels replaces the function (the latest wins).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	s := r.lookup(name, help, kindGaugeFunc, labels)
	r.mu.Lock()
	s.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.lookup(name, help, kindHistogram, labels).histogram
}

// SeriesCount returns the number of registered series across all
// families (each labelled instance counts once).
//
//borg:vet-ok deadexport — obs and serve tests bound the series count with it
func (r *Registry) SeriesCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, f := range r.families {
		n += len(f.series)
	}
	return n
}

// expositionQuantiles are the cumulative-bucket boundaries rendered
// per histogram: one le per octave keeps a scrape readable (a few
// dozen lines per histogram over the populated range) while the full
// fixed-resolution buckets stay available through Snapshot.
func expositionBounds(counts []uint64) []int {
	lo, hi := -1, -1
	for i, c := range counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return nil
	}
	var out []int
	// Octave upper bounds: 2^k for k spanning the populated range.
	for k := 0; k < 64-subBits; k++ {
		upper := bucketOf(int64(1)<<uint(k+subBits)) - 1
		if upper < lo {
			continue
		}
		out = append(out, upper)
		if upper >= hi {
			break
		}
	}
	return out
}

// WriteExposition renders every registered metric in the Prometheus
// text exposition format (text/plain; version=0.0.4): HELP/TYPE
// headers per family, one line per series, histograms as cumulative
// le-buckets (downsampled to octave boundaries) plus _sum and _count.
// Families and series render in registration order.
func (r *Registry) WriteExposition(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var counts [NumBuckets]uint64
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		for _, sig := range f.order {
			s := f.series[sig]
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
			case kindGaugeFunc:
				v := 0.0
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				}
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(v))
			case kindHistogram:
				err = writeHistogram(w, f.name, s, &counts)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series with cumulative octave
// buckets, _sum, and _count, reading it into counts.
func writeHistogram(w io.Writer, name string, s *series, counts *[NumBuckets]uint64) error {
	snap := s.histogram.readInto(counts)
	var cum uint64
	next := 0
	for _, b := range expositionBounds(snap.Counts) {
		for ; next <= b; next++ {
			cum += snap.Counts[next]
		}
		if err := writeBucket(w, name, s.labels, formatFloat(float64(BucketLower(b+1))), cum); err != nil {
			return err
		}
	}
	if err := writeBucket(w, name, s.labels, "+Inf", snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, s.labels, snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, snap.Count)
	return err
}

// writeBucket renders one cumulative le-bucket line, splicing le into
// any existing label set.
func writeBucket(w io.Writer, name, labels, le string, cum uint64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		return err
	}
	// labels is "{...}": open it up and append le.
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels[:len(labels)-1]+",le="+fmt.Sprintf("%q", le)+"}", cum)
	return err
}

// formatFloat renders a float the exposition way: integral values
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// MetricPoint is one series in a registry snapshot — the JSON-friendly
// form the /stats metrics block serves.
type MetricPoint struct {
	// Name is the family name; Labels the rendered label signature
	// ("" when unlabelled).
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Type is "counter", "gauge", or "histogram".
	Type string `json:"type"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/P50/P95/P99 carry histogram readings (absent
	// otherwise).
	Count uint64 `json:"count,omitempty"`
	Sum   int64  `json:"sum,omitempty"`
	P50   int64  `json:"p50,omitempty"`
	P95   int64  `json:"p95,omitempty"`
	P99   int64  `json:"p99,omitempty"`
}

// Snapshot renders every registered series as a MetricPoint, with
// histogram quantiles pre-extracted — the compact form embedded in
// /stats beside the full /metrics exposition. Its one allocation is the
// returned slice.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, f := range r.families {
		n += len(f.order)
	}
	out := make([]MetricPoint, 0, n)
	var counts [NumBuckets]uint64
	for _, name := range r.order {
		f := r.families[name]
		for _, sig := range f.order {
			s := f.series[sig]
			p := MetricPoint{Name: f.name, Labels: s.labels}
			switch f.kind {
			case kindCounter:
				p.Type = "counter"
				p.Value = float64(s.counter.Value())
			case kindGauge:
				p.Type = "gauge"
				p.Value = s.gauge.Value()
			case kindGaugeFunc:
				p.Type = "gauge"
				if s.gaugeFn != nil {
					p.Value = s.gaugeFn()
				}
			case kindHistogram:
				p.Type = "histogram"
				snap := s.histogram.readInto(&counts)
				p.Count = snap.Count
				p.Sum = snap.Sum
				p.P50 = snap.Quantile(0.50)
				p.P95 = snap.Quantile(0.95)
				p.P99 = snap.Quantile(0.99)
			}
			out = append(out, p)
		}
	}
	return out
}
