package main

import (
	"testing"
	"time"
)

// testDatasets are small instances of the three generated schemas.
func testDatasets(seed uint64) map[string]*dataset {
	return map[string]*dataset{
		"retailer": retailerDataset(seed, 0.05),
		"tenant":   tenantDataset(seed, 16, 2000),
		"http":     httpDataset(seed, 8, 10, 4000, 1000),
	}
}

var testMix = mix{0.40, 0.40, 0.15, 0.05}

func streamHash(ds *dataset, seed uint64, n int) uint64 {
	g := newChurnGen(ds, seed, testMix, 0, 1)
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		h = g.next().hash(h)
	}
	return h
}

func TestSameSeedSameStream(t *testing.T) {
	for name := range testDatasets(7) {
		a := streamHash(testDatasets(7)[name], 7, 20000)
		b := streamHash(testDatasets(7)[name], 7, 20000)
		c := streamHash(testDatasets(8)[name], 8, 20000)
		if a != b {
			t.Errorf("%s: the same seed gave two op streams (%x, %x)", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

// TestEveryTargetIsLive replays the stream against a multiset: a delete
// or an update that names a tuple which is not live would fail on the
// server, and the workloads are built so that no op fails.
func TestEveryTargetIsLive(t *testing.T) {
	for name, ds := range testDatasets(3) {
		parts := 1
		if name == "http" {
			parts = 2 // two connections, each deleting only its own rows
		}
		type key struct {
			tab uint8
			row int32
		}
		live := make(map[key]int)
		if err := ds.preload(func(o op) error { live[key{o.tab, o.row}]++; return nil }); err != nil {
			t.Fatal(err)
		}
		var inserts, deletes uint64
		for p := 0; p < parts; p++ {
			g := newChurnGen(ds, 3, testMix, p, parts)
			for i := 0; i < 50000; i++ {
				o := g.next()
				switch o.kind {
				case opInsert:
					live[key{o.tab, o.row}]++
				case opDelete, opUpdate:
					target := o.row
					if o.kind == opUpdate {
						target = o.old
					}
					if live[key{o.tab, target}] == 0 {
						t.Fatalf("%s: op %d (%+v) targets a tuple that is not live", name, i, o)
					}
					live[key{o.tab, target}]--
					if o.kind == opUpdate {
						live[key{o.tab, o.row}]++
						if g.partOf != nil && int(o.tab) == ds.fact && g.partOf[o.old] != g.partOf[o.row] {
							t.Fatalf("%s: op %d moves a fact row to another partition", name, i)
						}
					}
				}
			}
			inserts, deletes = inserts+g.inserts, deletes+g.deletes
			// The generator's own live set is the multiset's fact part.
			have := make(map[int32]int)
			for _, r := range g.live {
				have[r]++
			}
			for r, n := range have {
				if live[key{uint8(ds.fact), r}] < n {
					t.Fatalf("%s: generator holds row %d live %d times, the multiset %d", name, r, n, live[key{uint8(ds.fact), r}])
				}
			}
		}
		total := 0
		for _, n := range live {
			total += n
		}
		if want := ds.preloadRows() + int(inserts) - int(deletes); total != want {
			t.Errorf("%s: %d tuples live, the tallies say %d", name, total, want)
		}
	}
}

// TestGeneratingAllocatesNothing keeps allocs_per_op a measurement of
// the program: rows are boxed once, at set-up.
func TestGeneratingAllocatesNothing(t *testing.T) {
	for name, ds := range testDatasets(5) {
		g := newChurnGen(ds, 5, testMix, 0, 1)
		var sink op
		if n := testing.AllocsPerRun(5000, func() { sink = g.next() }); n != 0 {
			t.Errorf("%s: generating an op allocates %v times", name, n)
		}
		_ = sink
	}
}

// fakeClock is a clock whose sleeps overshoot by a fixed amount and
// which can be stalled from outside.
type fakeClock struct {
	now       time.Duration
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Duration    { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += d + c.overshoot }

func TestPacerMeasuresLatenessFromDueTime(t *testing.T) {
	c := &fakeClock{overshoot: 30 * time.Microsecond}
	p := pacer{interval: time.Millisecond, next: time.Millisecond}
	for k := 1; k <= 3; k++ {
		due, late := p.wait(c)
		if due != time.Duration(k)*time.Millisecond || late != c.overshoot {
			t.Fatalf("burst %d: due %v late %v, want %v and the sleep's overshoot %v", k, due, late, time.Duration(k)*time.Millisecond, c.overshoot)
		}
	}
	// The system stalls the generator for 5 ms inside burst 3. The
	// schedule does not move: bursts 4 to 8 are sent at once, each late
	// by what is left of the stall, and the first burst after it is on
	// time again.
	c.now += 5 * time.Millisecond
	stalledAt := c.now
	for k := 4; k <= 8; k++ {
		due, late := p.wait(c)
		if due != time.Duration(k)*time.Millisecond {
			t.Fatalf("burst %d is due at %v: the schedule shifted", k, due)
		}
		if c.now != stalledAt || late != stalledAt-due {
			t.Fatalf("burst %d: late %v at %v, want %v without sleeping", k, late, c.now, stalledAt-due)
		}
	}
	if due, late := p.wait(c); due != 9*time.Millisecond || late != c.overshoot {
		t.Fatalf("burst 9: due %v late %v, want back on schedule", due, late)
	}
}
