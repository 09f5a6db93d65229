//go:build !purego

package ml

// dot2x2 is the SSE2 kernel in dot2x2_amd64.s: dot2x2Generic's sums in
// dot2x2Generic's order, two lanes per instruction. x1, y0 and y1 must
// be at least as long as x0; the kernel reads len(x0) entries of each.
//
//go:noescape
func dot2x2(x0, x1, y0, y1 []float64) (s00, s01, s10, s11 float64)
