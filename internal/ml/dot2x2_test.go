package ml

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"borg/internal/xrand"
)

// dot2x2Specials are the values that tell one summation order, or one
// rounding, from another: signed zeros, infinities, NaN, subnormals, and
// magnitudes that cancel.
var dot2x2Specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1050, -0x1p-1030,
	1e300, -1e300, 0x1p53, -0x1p53, 1 + 0x1p-52, -1, 1e-300, math.MaxFloat64,
}

// sameFloat is bitwise equality, except that any NaN equals any NaN: a
// NaN's payload depends on which operand an x86 add returns when both
// are NaN, which neither order pins.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkDot2x2 holds dot2x2 to dot2x2Generic on the operands of length n
// at offsets off into ops.
func checkDot2x2(t *testing.T, ops [4][]float64, off [4]int, n int, what string) {
	t.Helper()
	x0, x1 := ops[0][off[0]:off[0]+n], ops[1][off[1]:off[1]+n]
	y0, y1 := ops[2][off[2]:off[2]+n], ops[3][off[3]:off[3]+n]
	g00, g01, g10, g11 := dot2x2(x0, x1, y0, y1)
	w00, w01, w10, w11 := dot2x2Generic(x0, x1, y0, y1)
	got, want := [4]float64{g00, g01, g10, g11}, [4]float64{w00, w01, w10, w11}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s, n %d, offsets %v: s%02b = %v (%#x), generic %v (%#x)",
				what, n, off, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDot2x2MatchesGeneric holds the kernel to its Go twin bit for bit
// at every length 0–67 (every count of whole sweeps and every tail),
// every start offset 0–3 of each operand (every unaligned 16-byte load),
// on finite values, on special values, and on large magnitudes that
// cancel. The entries around each operand are NaN: a kernel that read
// past either end would turn a finite sum into NaN.
func TestDot2x2MatchesGeneric(t *testing.T) {
	src := xrand.New(43)
	mixes := []struct {
		name string
		draw func() float64
	}{
		{"finite", func() float64 { return src.NormFloat64() }},
		{"special", func() float64 {
			if src.Intn(3) == 0 {
				return dot2x2Specials[src.Intn(len(dot2x2Specials))]
			}
			return src.NormFloat64()
		}},
		{"cancelling", func() float64 {
			v := math.Ldexp(1+src.Float64(), 40*src.Intn(3))
			if src.Intn(2) == 0 {
				v = -v
			}
			return v
		}},
	}
	const maxN = 67
	for _, mix := range mixes {
		for n := 0; n <= maxN; n++ {
			var ops [4][]float64
			for o := range ops {
				ops[o] = make([]float64, maxN+8)
				for k := range ops[o] {
					ops[o][k] = math.NaN()
				}
			}
			for off := range 4 * 4 * 4 * 4 {
				offs := [4]int{off % 4, off / 4 % 4, off / 16 % 4, off / 64}
				for o := range ops {
					buf := ops[o][offs[o] : offs[o]+n]
					for k := range buf {
						buf[k] = mix.draw()
					}
				}
				checkDot2x2(t, ops, offs, n, mix.name)
				for o := range ops {
					for k := offs[o]; k < offs[o]+n; k++ {
						ops[o][k] = math.NaN()
					}
				}
			}
		}
	}
}

// FuzzDot2x2 holds the kernel to its twin on operands whose bits the
// fuzzer writes: raw is read 8 bytes to a value, round robin over the
// four operands, and a seeded draw of normals and special values fills
// whatever raw does not reach.
func FuzzDot2x2(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint64(1), uint8(0), uint8(0), []byte{})
	f.Add(uint64(2), uint8(5), uint8(1), bits(1e300, 1, -1e300, 1, 1e300, 1, 1e300, 1))
	f.Add(uint64(3), uint8(17), uint8(0x1b), bits(math.Copysign(0, -1), 0, math.Copysign(0, -1), math.Copysign(0, -1)))
	f.Add(uint64(4), uint8(8), uint8(0xe4), bits(math.Inf(1), 0, math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64, 0x1p-1050))
	f.Add(uint64(5), uint8(67), uint8(0xff), []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, seed uint64, n, offs uint8, raw []byte) {
		src := xrand.New(seed)
		size := int(n) % 130
		var ops [4][]float64
		for o := range ops {
			ops[o] = make([]float64, size+3)
			for k := range ops[o] {
				if src.Intn(4) == 0 {
					ops[o][k] = dot2x2Specials[src.Intn(len(dot2x2Specials))]
				} else {
					ops[o][k] = src.NormFloat64()
				}
			}
		}
		for i := 0; 8*i+8 <= len(raw) && i < 4*(size+3); i++ {
			ops[i%4][i/4] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		off := [4]int{int(offs) & 3, int(offs) >> 2 & 3, int(offs) >> 4 & 3, int(offs) >> 6 & 3}
		checkDot2x2(t, ops, off, size, "fuzz")
	})
}

// BenchmarkDot2x2 times the row-pair kernel against its Go twin at a
// short lead-block width, at the tenant border (104) and at the tenant
// system's full width (904).
func BenchmarkDot2x2(b *testing.B) {
	src := xrand.New(7)
	for _, n := range []int{4, 104, 904} {
		var ops [4][]float64
		for o := range ops {
			ops[o] = make([]float64, n)
			for k := range ops[o] {
				ops[o][k] = src.NormFloat64()
			}
		}
		for _, k := range []struct {
			name string
			fn   func(x0, x1, y0, y1 []float64) (float64, float64, float64, float64)
		}{{"kernel", dot2x2}, {"generic", dot2x2Generic}} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				var sink float64
				for i := 0; i < b.N; i++ {
					s00, s01, s10, s11 := k.fn(ops[0], ops[1], ops[2], ops[3])
					sink += s00 + s01 + s10 + s11
				}
				if math.IsNaN(sink) {
					b.Fatal("NaN")
				}
			})
		}
	}
}
