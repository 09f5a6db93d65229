package serve

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/relation"
	"borg/internal/ring"
)

// pubSink keeps published snapshots observable.
var pubSink *Snapshot

// cofactorServer returns a closed PayloadCofactor server (so the test
// goroutine may drive its maintainer) holding one sale in each of
// groups (item, store) pairs, and a churn function: batch i inserts (i
// even) or deletes again (i odd) one more sale in each of dirty
// existing groups, so the state it leaves behind does not grow.
func cofactorServer(tb testing.TB, groups, dirty int) (*Server, func(i int) []ivm.Op) {
	const stores = 20
	items := groups / stores
	j, dims, feats := salesSchema(3, 0, items, stores) // the join and its Items and Stores rows
	srv, err := New(j, "Sales", append(feats, "item", "store"), Config{Payload: ivm.PayloadCofactor})
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		tb.Fatal(err)
	}
	sale := func(i, s int, units float64) ivm.Tuple {
		return ivm.Tuple{Rel: "Sales", Values: []relation.Value{relation.CatVal(int32(i)), relation.CatVal(int32(s)), relation.FloatVal(units)}}
	}
	var load []ivm.Op
	for _, tu := range dims {
		load = append(load, ivm.Op{Tuple: tu})
	}
	for g := 0; g < items*stores; g++ {
		load = append(load, ivm.Op{Tuple: sale(g%items, g/items, float64(1+g%11))})
	}
	if res := srv.m.ApplyBatch(load); res.Err != nil {
		tb.Fatal(res.Err)
	}
	if got := srv.buildSnapshot(0, 0, 0).Cofactor().NumGroups(); got != items*stores {
		tb.Fatalf("%d live groups, want %d", got, items*stores)
	}
	return srv, func(i int) []ivm.Op {
		ops := make([]ivm.Op, dirty)
		for d := range ops {
			// A stride coprime to the group count spreads the dirty groups.
			g := (d*37 + (i/2)*dirty) % (items * stores)
			ops[d] = ivm.Op{Kind: ivm.OpKind(i % 2), Tuple: sale(g%items, g/items, 3)}
		}
		return ops
	}
}

// TestCofactorPublicationAllocsBounded pins what publishing a cofactor
// epoch through the writer allocates. An epoch is the root's base and a
// prefix of its delta log, and nothing is copied; once superseded, an
// epoch no reader pinned is reused, header, backing and log window, so in
// steady state a publication allocates nothing however many groups are
// live and however many of them the epoch's ops dirtied. When a reader
// pins every epoch, each costs a constant handful (the Snapshot and its
// float backing). It pins too that a pinned publication costs the writer
// nothing later: the same batch applied right after one allocates at
// most one more than applied with none in between, at any size — the
// writer appends deltas to its log and never copies a group an epoch
// holds.
func TestCofactorPublicationAllocsBounded(t *testing.T) {
	const dirty, runs = 16, 51
	var ms runtime.MemStats
	mallocs := func() int64 { runtime.ReadMemStats(&ms); return int64(ms.Mallocs) }
	// median keeps a stray runtime allocation, a log chunk or a fold out
	// of the pinned figure.
	median := func(f func(i int) int64) int64 {
		counts := make([]int64, runs)
		for i := range counts {
			counts[i] = f(i)
		}
		slices.Sort(counts)
		return counts[runs/2]
	}
	var unread, pinned, after [2]int64
	for k, groups := range []int{500, 5000} {
		srv, churn := cofactorServer(t, groups, dirty)
		apply := func(i int) int64 {
			m0 := mallocs()
			srv.m.ApplyBatch(churn(i))
			return mallocs() - m0
		}
		publish := func(i int, read bool) int64 {
			apply(i)
			m0 := mallocs()
			srv.forcePublish()
			if read {
				pubSink = srv.Snapshot()
			}
			return mallocs() - m0
		}
		unread[k] = median(func(i int) int64 { return publish(i, false) })
		pinned[k] = median(func(i int) int64 { return publish(i, true) })
		// The same insert batch right after a pinned publication, less the
		// same batch applied again (its deletes in between) with no
		// publication.
		after[k] = median(func(i int) int64 {
			srv.forcePublish()
			pubSink = srv.Snapshot()
			first := apply(2 * i)
			apply(2*i + 1)
			again := apply(2 * i)
			apply(2*i + 1)
			return first - again
		})
	}
	const c = 4
	if unread[0] != 0 || unread[1] != 0 {
		t.Fatalf("an unread publication allocates %d at 500 groups, %d at 5000; want 0", unread[0], unread[1])
	}
	if pinned[0] != pinned[1] || pinned[1] > c {
		t.Fatalf("a pinned publication allocates %d at 500 groups, %d at 5000; want equal and at most %d", pinned[0], pinned[1], c)
	}
	if after[0] != after[1] || after[1] > 1 {
		t.Fatalf("a batch right after a publication allocates %d more at 500 groups, %d at 5000; want equal and at most 1", after[0], after[1])
	}
	t.Logf("publication %d allocs unread, %d pinned; a batch after it %d more", unread[1], pinned[1], after[1])
}

// TestCofactorDerivedTriple holds the lazily derived triple of a
// cofactor epoch (its marginal) and of a poly2 epoch (its degree-≤2
// prefix) to the maintainer's own triple at that epoch, bit for bit, on
// the real-valued Tenant stream (where summation order shows in the last
// bits). Every epoch of an insert-then-retract stream is published, and
// read only once the maintainers have moved on; at several shards the
// merged epoch is held to the shard triples summed in shard order.
// First reads — each of them a derivation — and later reads allocate
// nothing, and eight goroutines racing on the first read of one epoch
// all see the same bits.
func TestCofactorDerivedTriple(t *testing.T) {
	ds := datagen.Tenant(5, 0.02)
	cont := []string{"units", "price", "sellarea", "footfall"}
	var stream []ivm.Op
	for _, name := range ds.StreamOrder {
		for _, r := range ds.Join.Relations {
			for i := 0; r.Name == name && i < r.NumRows(); i++ {
				stream = append(stream, ivm.Op{Tuple: ivm.Tuple{Rel: name, Values: r.Row(i)}})
			}
		}
	}
	for i, o := range stream {
		if o.Tuple.Rel == "Sales" && i%3 == 0 {
			stream = append(stream, ivm.Op{Kind: ivm.OpDelete, Tuple: o.Tuple})
		}
	}
	bits := func(c *ring.Covar) []uint64 {
		out := []uint64{math.Float64bits(c.Count)}
		for _, v := range append(slices.Clone(c.Sum), c.Q...) {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	for _, tc := range []struct {
		payload  ivm.Payload
		features []string
	}{
		{ivm.PayloadCofactor, append(slices.Clone(cont), "store", "item")},
		{ivm.PayloadPoly2, cont},
	} {
		for _, shards := range []int{1, 2, 3} {
			srvs := make([]*Server, shards)
			for i := range srvs {
				srv, err := New(ds.Join, ds.Root, tc.features, Config{Payload: tc.payload})
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Close(); err != nil { // the test goroutine drives the maintainers
					t.Fatal(err)
				}
				srvs[i] = srv
			}
			// publish applies ops, routed by store (column 0 of every Tenant
			// relation), and returns the tier's new epoch with the maintainer
			// triple its own must equal.
			publish := func(ops []ivm.Op) (*Snapshot, []uint64) {
				parts := make([]*Snapshot, shards)
				for i, srv := range srvs {
					var mine []ivm.Op
					for _, o := range ops {
						if int(o.Tuple.Values[0].C)%shards == i {
							mine = append(mine, o)
						}
					}
					if res := srv.m.ApplyBatch(mine); res.Err != nil {
						t.Fatal(res.Err)
					}
					parts[i] = srv.buildSnapshot(0, 0, 0)
				}
				if shards == 1 {
					return parts[0], bits(srvs[0].m.Snapshot())
				}
				sum := ring.CovarRing{N: len(srvs[0].features)}.Zero()
				for _, srv := range srvs {
					sum.AddInPlace(srv.m.Snapshot())
				}
				return Merged(parts), bits(sum)
			}
			var epochs []*Snapshot
			var want [][]uint64
			for lo := 0; lo < len(stream); lo += 64 {
				e, w := publish(stream[lo:min(lo+64, len(stream))])
				epochs, want = append(epochs, e), append(want, w)
			}
			next := 0
			if a := testing.AllocsPerRun(len(epochs)-1, func() { readSink += epochs[next].Stats().Count; next++ }); a != 0 {
				t.Fatalf("%v, %d shards: a first read allocates %.1f/op, want 0", tc.payload, shards, a)
			}
			if a := testing.AllocsPerRun(100, func() { readSink += epochs[0].Stats().Count }); a != 0 {
				t.Fatalf("%v, %d shards: a later read allocates %.1f/op, want 0", tc.payload, shards, a)
			}
			for k, e := range epochs {
				if got := bits(e.Stats()); !slices.Equal(got, want[k]) {
					t.Fatalf("%v, %d shards, epoch %d: derived triple %v, want the maintainer's %v", tc.payload, shards, k, e.Stats(), want[k])
				}
			}
			e, w := publish(stream[:64])
			seen := make([][]uint64, 8)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for r := range seen {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					seen[r] = bits(e.Stats())
				}()
			}
			close(start)
			wg.Wait()
			for r, got := range seen {
				if !slices.Equal(got, w) {
					t.Fatalf("%v, %d shards: racing reader %d saw %v, want %v", tc.payload, shards, r, got, w)
				}
			}
		}
	}
}

// BenchmarkPublishCofactor times one epoch publication of the cofactor
// payload after a 64-op batch dirtied 64 of the live groups, in µs per
// epoch — the layer row behind the e2e serve.publish_us_per_epoch. The
// batch itself is outside the timer.
func BenchmarkPublishCofactor(b *testing.B) {
	for _, groups := range []int{500, 5000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			srv, churn := cofactorServer(b, groups, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv.m.ApplyBatch(churn(i))
				b.StartTimer()
				pubSink = srv.buildSnapshot(uint64(i), 0, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/epoch")
		})
	}
}
