//go:build !amd64 || purego

package ml

// dot2x2 is dot2x2Generic where no assembly kernel is built.
func dot2x2(x0, x1, y0, y1 []float64) (s00, s01, s10, s11 float64) {
	return dot2x2Generic(x0, x1, y0, y1)
}
