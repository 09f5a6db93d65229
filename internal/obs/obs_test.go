package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketRoundTrip pins the bucket math: every bucket's lower bound
// maps back into that bucket, indices are monotone in the value, and
// the relative rounding error never exceeds 2^-subBits.
func TestBucketRoundTrip(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		lo := BucketLower(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("BucketLower(%d)=%d maps to bucket %d", i, lo, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 1000, 12345, 1 << 20, 1<<40 + 7, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		lo := BucketLower(b)
		if lo > v {
			t.Fatalf("BucketLower(%d)=%d exceeds value %d", b, lo, v)
		}
		if v >= 1<<subBits {
			if rel := float64(v-lo) / float64(v); rel > 1.0/(1<<subBits) {
				t.Fatalf("value %d rounds to %d: relative error %g > %g", v, lo, rel, 1.0/(1<<subBits))
			}
		} else if lo != v {
			t.Fatalf("small value %d not exact: bucket lower %d", v, lo)
		}
	}
	if bucketOf(math.MaxInt64) >= NumBuckets {
		t.Fatalf("MaxInt64 bucket %d out of range %d", bucketOf(math.MaxInt64), NumBuckets)
	}
}

// TestQuantileOracle feeds streams of values that sit exactly on
// bucket lower bounds and checks every extracted quantile against the
// sorted-sample oracle: the ceil(q·n)-th smallest element. On such
// streams the histogram loses nothing to rounding, so equality is
// exact — including across bucket-boundary straddles and the unit-
// bucket/octave-bucket seam at 2^subBits.
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	streams := map[string][]int64{
		"unit-buckets": {0, 1, 1, 2, 3, 3, 3, 5, 8, 13, 21, 31},
		// 32..63 sit in width-1 sub-buckets, 64+ in width-2: every
		// value here is a bucket lower bound on both sides of the seam.
		"boundary-seam": {30, 31, 32, 33, 34, 62, 63, 64, 66, 68},
		"one-value":     {4096},
		"two-spikes":    {1, 1, 1, 1, 1, 1 << 30, 1 << 30},
	}
	wide := make([]int64, 5000)
	for i := range wide {
		// Random bucket lower bounds spanning the full layout.
		wide[i] = BucketLower(rng.Intn(NumBuckets))
	}
	streams["wide-random"] = wide

	for name, vals := range streams {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		snap := h.Snapshot()
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			target := int(math.Ceil(q * float64(len(sorted))))
			if target < 1 {
				target = 1
			}
			want := sorted[target-1]
			if got := snap.Quantile(q); got != want {
				t.Errorf("%s: Quantile(%g) = %d, oracle %d", name, q, got, want)
			}
		}
		if snap.Count != uint64(len(vals)) {
			t.Errorf("%s: Count = %d, want %d", name, snap.Count, len(vals))
		}
		var sum int64
		for _, v := range vals {
			sum += v
		}
		if snap.Sum != sum {
			t.Errorf("%s: Sum = %d, want %d", name, snap.Sum, sum)
		}
	}
}

// TestQuantileEmpty pins the empty-histogram contract.
func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if got := snap.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
}

// TestMergeAssociativity checks the disjoint-union algebra: folding
// per-shard histograms in any grouping yields bucket-identical state,
// and the fold equals one global histogram fed the concatenation —
// the property the sharded tier's merged scrape relies on.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]Histogram, 4)
	var global Histogram
	for i := 0; i < 20000; i++ {
		v := int64(rng.Intn(1 << 22))
		shards[rng.Intn(len(shards))].Observe(v)
		global.Observe(v)
	}

	// Left fold: ((s0+s1)+s2)+s3.
	left := shards[0].Snapshot()
	for i := 1; i < len(shards); i++ {
		left.Merge(shards[i].Snapshot())
	}
	// Right-ish fold: (s0+s1) + (s2+s3).
	a := shards[0].Snapshot()
	a.Merge(shards[1].Snapshot())
	b := shards[2].Snapshot()
	b.Merge(shards[3].Snapshot())
	a.Merge(b)

	g := global.Snapshot()
	for name, m := range map[string]HistSnapshot{"left-fold": left, "pair-fold": a} {
		if m.Count != g.Count || m.Sum != g.Sum {
			t.Fatalf("%s: count/sum (%d,%d) != global (%d,%d)", name, m.Count, m.Sum, g.Count, g.Sum)
		}
		for i := range m.Counts {
			if m.Counts[i] != g.Counts[i] {
				t.Fatalf("%s: bucket %d = %d, global %d", name, i, m.Counts[i], g.Counts[i])
			}
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if m.Quantile(q) != g.Quantile(q) {
				t.Fatalf("%s: Quantile(%g) = %d, global %d", name, q, m.Quantile(q), g.Quantile(q))
			}
		}
	}
	// Merge into a zero-value snapshot allocates the bucket slice.
	var zero HistSnapshot
	zero.Merge(g)
	if zero.Count != g.Count {
		t.Fatalf("zero-merge count %d != %d", zero.Count, g.Count)
	}
}

// TestConcurrentWritersWithScraper race-certifies the hot path: many
// goroutines hammer a shared counter, gauge, and histogram while a
// reader repeatedly scrapes the registry. Run under -race in CI.
func TestConcurrentWritersWithScraper(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops", nil)
	g := r.Gauge("depth", "queue depth", nil)
	h := r.Histogram("latency_ns", "latency", Labels{"stage": "apply"})

	const writers = 8
	const perWriter = 5000
	var writeWG, scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	scrapeWG.Add(1)
	go func() { // scraper
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WriteExposition(&sb); err != nil {
				t.Errorf("WriteExposition: %v", err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(seed int64) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(int64(rng.Intn(1 << 20)))
			}
		}(int64(w))
	}
	writeWG.Wait()
	close(stop)
	scrapeWG.Wait()

	if c.Value() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", snap.Count, writers*perWriter)
	}
}

// TestHotPathAllocs pins the acceptance criterion: counter, gauge, and
// histogram updates allocate nothing.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h_ns", "", nil)
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(float64(v))
		h.Observe(v)
		v += 97
	}); n != 0 {
		t.Fatalf("hot-path updates allocate %v allocs/op, want 0", n)
	}
}

// TestRegistryIdempotent checks that re-registering the same
// name+labels returns the same handle (how shards share one registry)
// and that distinct label sets get distinct series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"shard": "0"})
	b := r.Counter("x_total", "help", Labels{"shard": "0"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "help", Labels{"shard": "1"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	if n := r.SeriesCount(); n != 2 {
		t.Fatalf("SeriesCount = %d, want 2", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "help", nil)
}

// TestExpositionFormat spot-checks the Prometheus text rendering:
// HELP/TYPE headers, label rendering in sorted key order, cumulative
// le-buckets ending in +Inf, and _sum/_count lines.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("borg_ops_total", "Total ops.", Labels{"shard": "0", "kind": "insert"}).Add(7)
	r.Gauge("borg_depth", "Queue depth.", nil).Set(3)
	r.GaugeFunc("borg_age_seconds", "Age.", nil, func() float64 { return 1.5 })
	h := r.Histogram("borg_wait_ns", "Wait.", nil)
	h.Observe(10)
	h.Observe(100)
	h.Observe(100000)

	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP borg_ops_total Total ops.\n",
		"# TYPE borg_ops_total counter\n",
		`borg_ops_total{kind="insert",shard="0"} 7` + "\n",
		"# TYPE borg_depth gauge\n",
		"borg_depth 3\n",
		"borg_age_seconds 1.5\n",
		"# TYPE borg_wait_ns histogram\n",
		`borg_wait_ns_bucket{le="+Inf"} 3` + "\n",
		"borg_wait_ns_sum 100110\n",
		"borg_wait_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone and end at the total count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "borg_wait_ns_bucket") {
			continue
		}
		var cum uint64
		if _, err := fmtSscan(line, &cum); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if cum < last {
			t.Fatalf("non-monotone cumulative bucket: %q after %d", line, last)
		}
		last = cum
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}
}

// fmtSscan extracts the trailing integer of an exposition line.
func fmtSscan(line string, out *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var v uint64
	for _, ch := range line[i+1:] {
		v = v*10 + uint64(ch-'0')
	}
	*out = v
	return 1, nil
}

// TestSnapshotPoints checks the /stats-oriented Snapshot view carries
// quantiles for histograms and values for scalars.
func TestSnapshotPoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", nil).Add(5)
	h := r.Histogram("b_ns", "", nil)
	for i := int64(1); i <= 100; i++ {
		h.Observe(BucketLower(bucketOf(i))) // feed exact bucket bounds
	}
	pts := r.Snapshot()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	byName := map[string]MetricPoint{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	if p := byName["a_total"]; p.Type != "counter" || p.Value != 5 {
		t.Fatalf("a_total = %+v", p)
	}
	p := byName["b_ns"]
	if p.Type != "histogram" || p.Count != 100 || p.P50 == 0 || p.P99 < p.P50 {
		t.Fatalf("b_ns = %+v", p)
	}
}

// TestSnapshotReadsInPlace pins the /stats read: Registry.Snapshot
// allocates its one slice whatever the number of histograms, and reads
// each histogram to exactly the quantiles of its copying Snapshot.
func TestSnapshotReadsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRegistry()
	var hists []*Histogram
	for n := 1; n <= 20; n++ {
		r.Counter("c_total", "", Labels{"n": string(rune('a' + n))}).Add(uint64(n))
		h := r.Histogram("h_ns", "", Labels{"n": string(rune('a' + n))})
		for i := 0; i < 50*n; i++ {
			h.Observe(int64(rng.ExpFloat64() * float64(1000*n)))
		}
		hists = append(hists, h)
		if allocs := testing.AllocsPerRun(20, func() { _ = r.Snapshot() }); allocs != 1 {
			t.Fatalf("Snapshot over %d histograms: %v allocs, want 1", n, allocs)
		}
	}
	var got []MetricPoint
	for _, p := range r.Snapshot() {
		if p.Type == "histogram" {
			got = append(got, p)
		}
	}
	for i, h := range hists {
		want := h.Snapshot()
		p := got[i]
		if p.Count != want.Count || p.Sum != want.Sum || p.P50 != want.Quantile(0.50) || p.P95 != want.Quantile(0.95) || p.P99 != want.Quantile(0.99) {
			t.Fatalf("histogram %d: point %+v, copy count %d sum %d p50 %d p95 %d p99 %d",
				i, p, want.Count, want.Sum, want.Quantile(0.50), want.Quantile(0.95), want.Quantile(0.99))
		}
	}
}
