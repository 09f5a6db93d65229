package exec

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestScanCoversEveryRowOnce: the morsel decomposition must partition
// [0, n) exactly, for awkward sizes and worker counts.
func TestScanCoversEveryRowOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000, 4097} {
		for _, ms := range []int{0, 1, 3, 64, 100000} {
			for _, w := range []int{0, 1, 2, 8} {
				rt := Runtime{Workers: w, MorselSize: ms}
				var mu sync.Mutex
				seen := make([]int, n)
				parts := Scan(rt, n, func() int { return 0 }, func(s, lo, hi int) int {
					mu.Lock()
					for r := lo; r < hi; r++ {
						seen[r]++
					}
					mu.Unlock()
					return hi - lo
				})
				total := Fold(parts, func(a, b int) int { return a + b })
				if total != n {
					t.Fatalf("n=%d ms=%d w=%d: scanned %d rows", n, ms, w, total)
				}
				for r := range seen {
					if seen[r] != 1 {
						t.Fatalf("n=%d ms=%d w=%d: row %d visited %d times", n, ms, w, r, seen[r])
					}
				}
			}
		}
	}
}

// TestScanBitwiseDeterministicAcrossWorkers: with a pinned MorselSize,
// float accumulation must be bitwise identical at any worker count.
func TestScanBitwiseDeterministicAcrossWorkers(t *testing.T) {
	const n = 10000
	vals := make([]float64, n)
	for i := range vals {
		// Values whose sum is rounding-sensitive to association order.
		vals[i] = 1 / float64(i+1)
	}
	val := func(row int) (float64, bool) { return vals[row], true }
	ref := Sum(Runtime{Workers: 1, MorselSize: 129}, n, val)
	for _, w := range []int{1, 2, 8} {
		got := Sum(Runtime{Workers: w, MorselSize: 129}, n, val)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d: sum %x differs from serial %x",
				w, math.Float64bits(got), math.Float64bits(ref))
		}
	}
	// And a DIFFERENT morsel size is allowed to differ (sanity that the
	// test above is actually exercising association order).
	other := Sum(Runtime{Workers: 1, MorselSize: n}, n, val)
	_ = other // may or may not differ in the last ulp; no assertion
}

func naiveGroupedSum(keys []int32, vals []float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for i, k := range keys {
		out[uint64(uint32(k))] += vals[i]
	}
	return out
}

func TestGroupedSumMatchesNaive(t *testing.T) {
	const n = 5000
	keys := make([]int32, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = int32(i % 37)
		vals[i] = float64(i%11) - 3.5
	}
	want := naiveGroupedSum(keys, vals)
	for _, w := range []int{1, 2, 8} {
		rt := Runtime{Workers: w, MorselSize: 100}
		got := GroupedSum(rt, n, func(row int) uint64 { return uint64(uint32(keys[row])) },
			func(row int) (float64, bool) { return vals[row], true })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d groups, want %d", w, len(got), len(want))
		}
		for k, v := range want {
			if math.Abs(got[k]-v) > 1e-12 {
				t.Fatalf("workers=%d: group %d = %v, want %v", w, k, got[k], v)
			}
		}
	}
}

func TestSumRespectsFilter(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	got := Sum(Runtime{Workers: 4}, len(vals), func(row int) (float64, bool) {
		return vals[row], vals[row] > 2.5
	})
	if got != 12 {
		t.Fatalf("filtered sum = %v, want 12", got)
	}
}

func TestSumWhere(t *testing.T) {
	keys := []int32{5, 7, 5, 5, 7}
	vals := []float64{1, 10, 2, 4, 20}
	key := func(r int) uint64 { return uint64(uint32(keys[r])) }
	for _, w := range []int{1, 8} {
		rt := Runtime{Workers: w, MorselSize: 2}
		if got := SumWhere(rt, len(keys), key, 5, func(r int) float64 { return vals[r] }); got != 7 {
			t.Fatalf("workers=%d: SumWhere = %v, want 7", w, got)
		}
	}
}

// TestSelectWhereRowOrder: matches must come back in row order at any
// worker count — callers replay them into stateful recursions.
func TestSelectWhereRowOrder(t *testing.T) {
	const n = 3000
	key := func(r int) uint64 { return uint64(r % 3) }
	var want []int32
	for r := 0; r < n; r++ {
		if r%3 == 1 {
			want = append(want, int32(r))
		}
	}
	for _, w := range []int{1, 2, 8} {
		rt := Runtime{Workers: w, MorselSize: 17}
		got := SelectWhere(rt, n, key, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: match order diverged (len %d vs %d)", w, len(got), len(want))
		}
	}
}

// TestMultiSumMatchesPerSlotGroupedSum: the shared scan must equal one
// grouped sum per slot.
func TestMultiSumMatchesPerSlotGroupedSum(t *testing.T) {
	const n = 4000
	keys := make([]int32, n)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range keys {
		keys[i] = int32(i % 23)
		a[i] = float64(i) * 0.25
		b[i] = float64(i%7) - 3
	}
	key := func(r int) uint64 { return uint64(uint32(keys[r])) }
	slots := []RowVal{
		func(r int) (float64, bool) { return a[r], true },
		func(r int) (float64, bool) { return b[r], b[r] > 0 }, // filtered slot
		func(r int) (float64, bool) { return 1, true },        // count slot
	}
	rt := Runtime{Workers: 4, MorselSize: 64}
	multi := MultiSum(rt, n, key, slots)
	for s, slot := range slots {
		single := GroupedSum(rt, n, key, slot)
		for k, v := range single {
			if math.Float64bits(multi[k][s]) != math.Float64bits(v) {
				t.Fatalf("slot %d group %d: multi %v != single %v", s, k, multi[k][s], v)
			}
		}
	}
}

func TestGroupedFold(t *testing.T) {
	rows := []int32{0, 1, 2, 3, 4}
	key := func(r int) uint64 { return uint64(r % 2) }
	val := func(r int) (float64, bool) { return float64(r), r != 3 } // reject row 3
	got := GroupedFold(rows, key, val, func(dst, v float64) float64 { return dst + v })
	want := map[uint64]float64{0: 0 + 2 + 4, 1: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestFoldEmptyAndMergeNil(t *testing.T) {
	if got := Fold(nil, func(a, b int) int { return a + b }); got != 0 {
		t.Fatalf("empty fold = %d", got)
	}
	src := map[uint64]float64{1: 2}
	if got := MergeSum(nil, src); len(got) != 1 || got[1] != 2 {
		t.Fatalf("MergeSum(nil, src) = %v", got)
	}
	msrc := map[uint64][]float64{1: {2, 3}}
	if got := MergeMultiSum(nil, msrc); len(got) != 1 {
		t.Fatalf("MergeMultiSum(nil, src) = %v", got)
	}
}

func TestSerialRuntimeUsesSingleMorsel(t *testing.T) {
	morsels := func(rt Runtime, n int) int {
		return len(Scan(rt, n, func() int { return 0 }, func(s, lo, hi int) int { return s }))
	}
	if got := morsels(Serial(), 1<<20); got != 1 {
		t.Fatalf("serial auto morsels = %d, want 1 (the classic single-pass scan)", got)
	}
	if got := morsels(Runtime{Workers: 8}, 1<<20); got != (1<<20+DefaultMorselSize-1)/DefaultMorselSize {
		t.Fatalf("parallel auto morsels = %d", got)
	}
	if got := morsels(Runtime{}, 0); got != 0 {
		t.Fatalf("morsels of 0 rows = %d", got)
	}
}
