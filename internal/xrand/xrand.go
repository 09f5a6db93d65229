// Package xrand provides a small, fast, deterministic random number
// generator and the skewed samplers used by the synthetic dataset
// generators. Determinism matters here: every experiment in this
// repository must print the same table for the same seed, on any machine.
//
// The core generator is SplitMix64 (Steele et al., "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), which has a 64-bit state,
// passes BigCrush, and — unlike math/rand's global source — is trivially
// reproducible and cheap to fork per goroutine.
package xrand

import "math"

// Source is a deterministic SplitMix64 random source.
// The zero value is a valid source seeded with 0.
type Source struct {
	state uint64
}

// New returns a source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the
// Marsaglia polar method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
//
//borg:vet-ok deadexport — xrand and ring tests draw permutations with it
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the
// Fisher–Yates algorithm. swap swaps the elements with indexes i and j.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Zipf draws integers in [0, n) with a Zipfian distribution of exponent
// theta. Feature-extraction joins in retail datasets are heavily skewed
// (a few items account for most inventory rows), and several evaluated
// algorithms (worst-case optimal joins, degree-adaptive processing) are
// sensitive to that skew, so the generators need a principled heavy tail.
//
// The implementation uses the rejection-inversion method of Hörmann and
// Derflinger (1996), the same algorithm as math/rand.Zipf, reimplemented
// over our deterministic source.
type Zipf struct {
	src              *Source
	n                float64
	theta            float64
	q, v             float64
	oneminusQ        float64
	oneminusQinv     float64
	hxm, hx0minusHxm float64
	s                float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent theta > 1 is not
// required; theta must be > 0 and != 1 handled via the generalized harmonic
// approach. For theta values near 1 the sampler remains well defined.
func NewZipf(src *Source, theta float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if theta <= 0 {
		panic("xrand: NewZipf with non-positive theta")
	}
	z := &Zipf{src: src, n: float64(n), theta: theta, q: theta, v: 1}
	z.oneminusQ = 1 - z.q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.n + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*-z.q) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1)))
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Next returns a Zipf-distributed value in [0, n).
func (z *Zipf) Next() int {
	if z.q == 1 {
		// Harmonic special case: fall back to inverse CDF over logs.
		u := z.src.Float64()
		return int(math.Min(z.n-1, math.Floor(math.Exp(u*math.Log(z.n)))-1))
	}
	for {
		r := z.src.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			if k < 1 {
				k = 1
			}
			return int(k) - 1
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			if k < 1 {
				k = 1
			}
			return int(k) - 1
		}
	}
}
