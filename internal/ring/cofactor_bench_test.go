package ring

import "testing"

// The cofactor ring's per-layer microbenchmarks, in the shape the
// maintenance path calls them (run with -benchmem; benchstat-readable):
// a tuple lift into a recycled element, a single-group delta times a child view, and a delta
// folded into a 5 000-group root — in place, and appended to a
// CofactorRoot's log with an epoch published every 64 deltas.

var (
	elemSink  *Cofactor
	epochSink CofactorEpoch
)

// benchRing has the tenant workload's shape: four continuous features,
// two categorical slots.
var benchRing = CofactorRing{N: 4, K: 2}

func benchDelta(slot0, slot1 int32) *Cofactor {
	return benchRing.LiftCat([]int{0, 1}, []float64{2, 3}, []int{0, 1}, []int32{slot0, slot1})
}

// keySink is the one key the key benchmarks write into.
var keySink = make([]uint64, keyWords(benchRing.K))

func BenchmarkCofactorLiftCat(b *testing.B) {
	idx, vals, catIdx, cats := []int{0, 1}, []float64{2, 3}, []int{0, 1}, []int32{7, 9}
	dst := benchRing.Zero()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = benchRing.LiftCatInto(dst, idx, vals, catIdx, cats)
	}
	elemSink = dst
}

func BenchmarkCofactorPackKey(b *testing.B) {
	catIdx, cats := []int{0, 1}, []int32{7, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packCatKey(keySink, catIdx, cats)
	}
}

func BenchmarkCofactorMergeKeys(b *testing.B) {
	x := packCatKey(make([]uint64, len(keySink)), []int{0}, []int32{7})
	y := packCatKey(make([]uint64, len(keySink)), []int{1}, []int32{9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mergeCatKeys(keySink, x, y)
	}
}

func BenchmarkCofactorMul(b *testing.B) {
	// A fact tuple binding slot 0 times a dimension view binding slot 1
	// and carrying the other two features.
	delta := benchRing.LiftCat([]int{0, 1}, []float64{2, 3}, []int{0}, []int32{7})
	view := benchRing.LiftCat([]int{2, 3}, []float64{5, 8}, []int{1}, []int32{9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		elemSink = benchRing.Mul(delta, view)
	}
}

func BenchmarkCofactorAddInPlace(b *testing.B) {
	const groups = 5000
	root := benchRing.Zero()
	deltas := make([]*Cofactor, groups)
	for i := range deltas {
		deltas[i] = benchDelta(int32(i/25), int32(i%25))
		benchRing.AddInPlace(root, deltas[i])
	}
	b.Run("root", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRing.AddInPlace(root, deltas[i*37%groups])
		}
	})
	b.Run("root-after-publish", func(b *testing.B) {
		logged := NewCofactorRoot(benchRing, nil)
		for _, d := range deltas {
			logged.Add(d)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				logged.Publish(&epochSink) // handed back unread: the window recycles
			}
			logged.Add(deltas[i*37%groups])
		}
	})
}
