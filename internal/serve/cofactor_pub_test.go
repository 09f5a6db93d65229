package serve

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"borg/internal/ivm"
	"borg/internal/relation"
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
	srv, err := New(j, "Sales", append(feats, "item", "store"), Config{Payload: PayloadCofactor})
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
	if got := srv.buildSnapshot(0, 0, 0).Cofactor.NumGroups(); got != items*stores {
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
// epoch allocates: a constant handful (arena, float backing, element
// header, pointer slice) however many groups are live and however many
// of them the epoch's ops dirtied — the copies of the dirtied groups
// were made when they were written, three allocations each, and the
// untouched ones are shared with the previous epoch.
func TestCofactorPublicationAllocsBounded(t *testing.T) {
	const dirty, runs = 16, 51
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	// median keeps a stray runtime allocation out of the pinned figure.
	median := func(f func(i int) uint64) uint64 {
		counts := make([]uint64, runs)
		for i := range counts {
			counts[i] = f(i)
		}
		slices.Sort(counts)
		return counts[runs/2]
	}
	var publish, cow [2]uint64
	for k, groups := range []int{500, 5000} {
		srv, churn := cofactorServer(t, groups, dirty)
		apply := func(i int) uint64 {
			m0 := mallocs()
			srv.m.ApplyBatch(churn(i))
			return mallocs() - m0
		}
		publish[k] = median(func(i int) uint64 {
			apply(i)
			m0 := mallocs()
			pubSink = srv.buildSnapshot(uint64(i), 0, 0)
			return mallocs() - m0
		})
		// The same insert batch costs more right after a publication,
		// when every group it writes is shared with the epoch, than
		// applied again (its deletes in between) with no publication:
		// the difference is what copy-on-write allocates.
		cow[k] = median(func(i int) uint64 {
			pubSink = srv.buildSnapshot(uint64(i), 0, 0)
			first := apply(2 * i)
			apply(2*i + 1)
			again := apply(2 * i)
			apply(2*i + 1)
			return first - again
		})
	}
	const c = 4 // arena, float backing, element header, pointer slice
	if publish[0] != publish[1] || publish[1] > c {
		t.Fatalf("publication allocates %d at 500 groups, %d at 5000; want equal and at most %d", publish[0], publish[1], c)
	}
	if cow[0] != cow[1] || cow[1] < dirty || cow[1] > 3*dirty {
		t.Fatalf("copy-on-write allocates %d per epoch at 500 groups, %d at 5000; want equal, and 1 to 3 for each of the %d dirty groups", cow[0], cow[1], dirty)
	}
	t.Logf("publication %d allocs, copy-on-write %d allocs for %d dirty groups", publish[1], cow[1], dirty)
}

// BenchmarkCofactorPublish times one epoch publication of the cofactor
// payload after a 64-op batch dirtied 64 of the live groups; the batch
// itself is outside the timer.
func BenchmarkCofactorPublish(b *testing.B) {
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
		})
	}
}
