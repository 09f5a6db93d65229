package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestForkDecorrelated(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	if parent.Uint64() == child.Uint64() {
		t.Fatal("fork produced the same first draw as parent")
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for _, n := range []int{1, 2, 7, 100, 1 << 20} {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(17)
	const n = 1000
	z := NewZipf(s, 1.2, n)
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= n {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate: a Zipf(1.2) head takes a double-digit share.
	if counts[0] < draws/20 {
		t.Fatalf("Zipf head too light: %d of %d", counts[0], draws)
	}
	// And the distribution must be monotone-ish: head > mid > tail buckets.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[n-1] + counts[n-2] + counts[n-3]
	if head <= tail {
		t.Fatalf("Zipf not skewed: head=%d tail=%d", head, tail)
	}
}

func TestZipfThetaOne(t *testing.T) {
	s := New(19)
	z := NewZipf(s, 1.0, 100)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf(theta=1) out of range: %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		theta float64
		n     int
	}{{0, 10}, {-1, 10}, {1.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(theta=%v, n=%d) did not panic", tc.theta, tc.n)
				}
			}()
			NewZipf(New(1), tc.theta, tc.n)
		}()
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func(seed uint64) []int {
		s := New(seed)
		v := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		s.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	a, b := mk(23), mk(23)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic for equal seeds")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkZipf(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1.1, 1<<20)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += z.Next()
	}
	_ = sink
}

// Fork derives an independent source from s. The derived stream is
// decorrelated from the parent by an extra mixing step, so generators
// handed to concurrent workers do not overlap.
func (s *Source) Fork() *Source {
	return &Source{state: mix(s.Uint64()) ^ 0x9e3779b97f4a7c15}
}
