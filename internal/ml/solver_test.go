package ml

import (
	"fmt"
	"math"
	"testing"
	"time"

	"borg/internal/core"
	"borg/internal/datagen"
	"borg/internal/ring"
	"borg/internal/xrand"
)

// denseReference is the textbook dense Cholesky solve the envelope form
// is checked against: full storage, no structure, nothing shared with
// choleskySolve.
func denseReference(a [][]float64, b []float64) []float64 {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := a[i][j]
			for k := 0; k < j; k++ {
				v -= l[i][k] * l[j][k]
			}
			if i == j {
				l[i][i] = math.Sqrt(v)
			} else {
				l[i][j] = v / l[j][j]
			}
		}
	}
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= l[i][k] * x[k]
		}
		x[i] /= l[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= l[k][i] * x[k]
		}
		x[i] /= l[i][i]
	}
	return x
}

// blockedSPD generates a symmetric, strictly diagonally dominant (hence
// positive-definite) matrix of diagonal blocks followed by a dense
// border, with a share of the entries INSIDE that structure set to an
// exact zero, and returns it with the first stored column of every row.
func blockedSPD(src *xrand.Source, blocks []int, border int, zeroShare float64) (full [][]float64, first []int) {
	n := border
	for _, w := range blocks {
		n += w
	}
	full = make([][]float64, n)
	for i := range full {
		full[i] = make([]float64, n)
	}
	first = make([]int, n)
	start := 0
	for _, w := range blocks {
		for i := start; i < start+w; i++ {
			first[i] = start
		}
		start += w
	}
	for i := 0; i < n; i++ {
		for j := first[i]; j < i; j++ {
			if src.Float64() >= zeroShare {
				v := 2*src.Float64() - 1
				full[i][j], full[j][i] = v, v
			}
		}
	}
	for i := range full {
		sum := 0.0
		for _, v := range full[i] {
			sum += math.Abs(v)
		}
		full[i][i] = sum + 0.1 + src.Float64()
	}
	return full, first
}

// envelopeOf copies the rows of full from their first stored column to
// the diagonal — the form choleskySolve takes.
func envelopeOf(full [][]float64, first []int) [][]float64 {
	a := make([][]float64, len(full))
	for i := range a {
		a[i] = append([]float64(nil), full[i][first[i]:i+1]...)
	}
	return a
}

func TestCholeskySolveEnvelopeMatchesDense(t *testing.T) {
	src := xrand.New(17)
	for trial := 0; trial < 200; trial++ {
		var blocks []int
		border := 0
		zeroShare := 0.0
		switch trial % 4 {
		case 0: // dense: one border, every row from column 0
			border = 1 + src.Intn(40)
		case 1: // diagonal blocks of random size plus a random border
			for k := src.Intn(12); k >= 0; k-- {
				blocks = append(blocks, 1+src.Intn(6))
			}
			border = src.Intn(10)
		case 2: // the same with numeric zeros inside the envelope
			for k := src.Intn(12); k >= 0; k-- {
				blocks = append(blocks, 1+src.Intn(6))
			}
			border = src.Intn(10)
			zeroShare = 0.5
		case 3: // the one-hot shape: 1×1 blocks, zeros in the border too
			blocks = make([]int, 1+src.Intn(50))
			for k := range blocks {
				blocks[k] = 1
			}
			border = 1 + src.Intn(8)
			zeroShare = 0.3
		}
		full, first := blockedSPD(src, blocks, border, zeroShare)
		b := make([]float64, len(full))
		for i := range b {
			b[i] = 2*src.Float64() - 1
		}
		want := denseReference(full, b)

		check := func(form string, a [][]float64) {
			t.Helper()
			got, err := choleskySolve(a, append([]float64(nil), b...))
			if err != nil {
				t.Fatalf("trial %d %s (blocks %v, border %d): %v", trial, form, blocks, border, err)
			}
			scale := 0.0
			for _, v := range want {
				scale = math.Max(scale, math.Abs(v))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-10*scale {
					t.Fatalf("trial %d %s (blocks %v, border %d): x[%d] = %v, dense reference %v",
						trial, form, blocks, border, i, got[i], want[i])
				}
			}
		}
		check("envelope", envelopeOf(full, first))
		// The same system in full square rows is the dense call.
		square := make([][]float64, len(full))
		for i := range square {
			square[i] = append([]float64(nil), full[i]...)
		}
		check("square", square)
	}
}

// A pivot that turns non-positive inside a diagonal block must be
// refused exactly like one in a dense matrix.
func TestCholeskyRejectsIndefiniteBlock(t *testing.T) {
	full := [][]float64{
		{4, 0, 0, 0, 1},
		{0, 1, 2, 0, 1},
		{0, 2, 1, 0, 1}, // the block [[1 2] [2 1]] has eigenvalue -1
		{0, 0, 0, 3, 1},
		{1, 1, 1, 1, 9},
	}
	a := envelopeOf(full, []int{0, 1, 1, 3, 0})
	if _, err := choleskySolve(a, []float64{1, 1, 1, 1, 1}); err == nil {
		t.Fatal("indefinite diagonal block accepted")
	}
	nan := [][]float64{{1}, {math.NaN(), 1}}
	if _, err := choleskySolve(nan, []float64{1, 1}); err == nil {
		t.Fatal("NaN pivot accepted")
	}
}

// FuzzCholeskyEnvelope holds choleskySolve to the dense reference on
// generated SPD systems: shape gives the widths (1–5) of the leading
// diagonal blocks — none is the dense system — border the width of the
// dense border, zeros the share of exact zeros inside the envelope. Each
// system is solved in three forms: rows from their block (the border
// from column 0, so rows pair up and their columns pair up), rows from
// their first non-zero, and whole square rows. A non-zero spoil makes
// pivot (spoil-1) mod n non-positive, the pivots before it untouched:
// every form must then fail, naming that pivot.
func FuzzCholeskyEnvelope(f *testing.F) {
	f.Add(uint64(1), []byte{}, uint8(9), uint8(0), uint16(0))                 // dense, odd: a lone last row
	f.Add(uint64(2), []byte{}, uint8(8), uint8(1), uint16(0))                 // dense, even
	f.Add(uint64(3), []byte{3, 3, 3, 3}, uint8(0), uint8(0), uint16(0))       // blocks of 4, no border
	f.Add(uint64(4), []byte{0, 1, 2, 3, 4}, uint8(7), uint8(2), uint16(0))    // widths 1–5, odd border
	f.Add(uint64(5), []byte{3, 3, 3, 3, 3, 3}, uint8(6), uint8(3), uint16(0)) // the CatPoly shape
	f.Add(uint64(6), []byte{}, uint8(6), uint8(0), uint16(4))                 // second row of the pair (2, 3)
	f.Add(uint64(7), []byte{1, 4}, uint8(5), uint8(1), uint16(11))            // border pair (9, 10)
	f.Add(uint64(8), []byte{0, 2}, uint8(4), uint8(0), uint16(3))             // a lone row of a block from column 1
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte, border, zeros uint8, spoil uint16) {
		if len(shape) > 48 {
			shape = shape[:48]
		}
		blocks := make([]int, len(shape))
		for k, w := range shape {
			blocks[k] = 1 + int(w)%5
		}
		src := xrand.New(seed)
		full, first := blockedSPD(src, blocks, int(border)%48, float64(zeros%4)/4)
		n := len(full)
		if n == 0 {
			return
		}
		pivot := -1
		if spoil > 0 {
			pivot = int(spoil-1) % n
			// The pivot is a_pp − Σ_k L[p][k]²; setting a_pp to half that
			// sum, less one, leaves it about −(½Σ + 1).
			l := make([][]float64, pivot+1)
			sum := 0.0
			for i := range l {
				l[i] = make([]float64, i+1)
				for j := 0; j <= i; j++ {
					v := full[i][j]
					for k := 0; k < j; k++ {
						v -= l[i][k] * l[j][k]
					}
					if i == pivot {
						if j == i {
							break
						}
						l[i][j] = v / l[j][j]
						sum += l[i][j] * l[i][j]
					} else if j == i {
						l[i][i] = math.Sqrt(v)
					} else {
						l[i][j] = v / l[j][j]
					}
				}
			}
			full[pivot][pivot] = sum/2 - 1
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*src.Float64() - 1
		}
		trimmed := make([]int, n)
		for i := range trimmed {
			for trimmed[i] < i && full[i][trimmed[i]] == 0 {
				trimmed[i]++
			}
		}
		square := make([][]float64, n)
		for i := range square {
			square[i] = append([]float64(nil), full[i]...)
		}
		var want []float64
		if pivot < 0 {
			want = denseReference(full, b)
		}
		for _, form := range []struct {
			name string
			a    [][]float64
		}{{"envelope", envelopeOf(full, first)}, {"trimmed", envelopeOf(full, trimmed)}, {"square", square}} {
			got, err := choleskySolve(form.a, append([]float64(nil), b...))
			if pivot >= 0 {
				if err == nil || err.Error() != notPositiveDefinite(pivot).Error() {
					t.Fatalf("%s (blocks %v, n %d): pivot %d spoiled, got error %v", form.name, blocks, n, pivot, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (blocks %v, n %d): %v", form.name, blocks, n, err)
			}
			scale := 0.0
			for _, v := range want {
				scale = math.Max(scale, math.Abs(v))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*scale {
					t.Fatalf("%s (blocks %v, n %d): x[%d] = %v, dense reference %v", form.name, blocks, n, i, got[i], want[i])
				}
			}
		}
	})
}

// tenantCofactor folds the first rows sales of the Tenant generator's
// join (stores × 25 catalog items) into one cofactor element with the
// categorical slots in the serving tier's order, item before store — so
// the widest feature is NOT the first.
func tenantCofactor(tb testing.TB, stores, rows int) (features, cats []string, cf *ring.Cofactor) {
	tb.Helper()
	d := datagen.Tenant(33, float64(stores)/64)
	sales, catalog, meta := d.DB.Relation("Sales"), d.DB.Relation("Catalog"), d.DB.Relation("Stores")
	cr := ring.CofactorRing{N: 4, K: 2}
	cf = cr.Zero()
	for r := 0; r < rows; r++ {
		s, i := sales.Col(0).C[r], sales.Col(1).C[r]
		vals := []float64{catalog.Col(2).F[int(s)*25+int(i)], meta.Col(1).F[s], meta.Col(2).F[s], sales.Col(2).F[r]}
		cr.AddInPlace(cf, cr.LiftCat([]int{0, 1, 2, 3}, vals, []int{0, 1}, []int32{i, s}))
	}
	return []string{"price", "sellarea", "footfall", "units"}, []string{"item", "store"}, cf
}

func tenantSigma(tb testing.TB) *Sigma {
	tb.Helper()
	features, cats, cf := tenantCofactor(tb, 200, 40000)
	sigma, err := NewCatLayout(cf).Sigma(features, cats, "units")
	if err != nil {
		tb.Fatal(err)
	}
	return sigma
}

// TestGDConvergesOnTenantDesign guards the step rule on the design the
// end-to-end benchmark trains: 229 one-hot parameters (200 stores, 25
// items), where the fixed 1/L step needs tens of thousands of iterations.
func TestGDConvergesOnTenantDesign(t *testing.T) {
	sigma := tenantSigma(t)
	if len(sigma.catCodes[1]) < 200 || len(sigma.catCodes[0]) != 25 {
		t.Fatalf("tenant design has %d stores × %d items", len(sigma.catCodes[1]), len(sigma.catCodes[0]))
	}
	gd := TrainLinRegGD(sigma, 1e-3, 5000, 1e-10)
	if !gd.Converged || gd.Iterations >= 500 {
		t.Fatalf("converged = %v after %d iterations, want convergence in < 500", gd.Converged, gd.Iterations)
	}
	closed, err := TrainLinRegClosedForm(sigma, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range closed.Theta {
		if math.Abs(gd.Theta[i]-closed.Theta[i]) > 1e-8*(1+math.Abs(closed.Theta[i])) {
			t.Fatalf("theta[%d]: GD %v, closed form %v (%d iterations)", i, gd.Theta[i], closed.Theta[i], gd.Iterations)
		}
	}
}

// TestGDHostileSigma: moments no descent can converge on must come back
// as Converged == false once the budget is spent — never hang, never
// report a minimizer.
func TestGDHostileSigma(t *testing.T) {
	for name, spoil := range map[string]func(s *Sigma){
		"NaN":  func(s *Sigma) { s.XtX[1][2], s.XtX[2][1] = math.NaN(), math.NaN() },
		"Inf":  func(s *Sigma) { s.XtY[1] = math.Inf(1) },
		"-Inf": func(s *Sigma) { s.XtX[2][2] = math.Inf(-1) },
		"zero diagonal": func(s *Sigma) { // indefinite: the descent diverges
			for i := range s.XtX {
				s.XtX[i][i] = 0
			}
		},
	} {
		_, j := regressionStar(11, 200)
		sigma, _ := sigmaFor(t, j, []string{"fx", "d0x"}, []string{"d0g"}, "y")
		spoil(sigma)
		start := time.Now()
		m := TrainLinRegGD(sigma, 1e-3, 20000, 1e-10)
		if m.Converged {
			t.Errorf("%s: reported convergence after %d iterations", name, m.Iterations)
		}
		if m.Iterations != 20000 {
			t.Errorf("%s: ran %d iterations, want the whole budget of 20000", name, m.Iterations)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: took %v", name, d)
		}
	}
}

// TestObjectiveIsWhatTheTrainersMinimize: the closed-form parameters are
// a minimum of ObjectiveFromSigma (no perturbation lowers it) and the
// converged descent reaches the same value.
func TestObjectiveIsWhatTheTrainersMinimize(t *testing.T) {
	for name, sigma := range map[string]*Sigma{
		"star": func() *Sigma {
			_, j := regressionStar(5, 500)
			s, _ := sigmaFor(t, j, []string{"fx", "d0x"}, []string{"d0g"}, "y")
			return s
		}(),
		"tenant": tenantSigma(t),
	} {
		const lambda = 1e-3
		closed, err := TrainLinRegClosedForm(sigma, lambda)
		if err != nil {
			t.Fatal(err)
		}
		best := closed.ObjectiveFromSigma(sigma)
		src := xrand.New(3)
		for trial := 0; trial < 200; trial++ {
			eps := math.Pow(10, -float64(1+trial%6))
			moved := *closed
			moved.Theta = append([]float64(nil), closed.Theta...)
			for i := range moved.Theta {
				moved.Theta[i] += eps * (2*src.Float64() - 1) * (1 + math.Abs(moved.Theta[i]))
			}
			if obj := moved.ObjectiveFromSigma(sigma); obj < best-1e-12*(1+math.Abs(best)) {
				t.Fatalf("%s: a perturbation of %g lowers the objective from %v to %v", name, eps, best, obj)
			}
		}
		gd := TrainLinRegGD(sigma, lambda, 50000, 1e-10)
		if !gd.Converged {
			t.Fatalf("%s: descent did not converge in %d iterations", name, gd.Iterations)
		}
		if obj := gd.ObjectiveFromSigma(sigma); math.Abs(obj-best) > 1e-9*(1+math.Abs(best)) {
			t.Fatalf("%s: objective at the GD parameters %v, at the closed form %v", name, obj, best)
		}
	}
}

// TestCatPolyUnderEveryWidestFeature: the elimination order follows
// whichever categorical feature has the most codes; the model must not.
func TestCatPolyUnderEveryWidestFeature(t *testing.T) {
	features := []string{"x", "z", "y"}
	src := xrand.New(21)
	for _, widths := range [][]int{{7, 3}, {3, 7}, {4, 4}, {2, 9, 3}, {5}} {
		cr := ring.CofactorRing{N: 3, K: len(widths)}
		cf := cr.Zero()
		idx := []int{0, 1, 2}
		catIdx := make([]int, len(widths))
		cats := make([]string, len(widths))
		for k := range widths {
			catIdx[k], cats[k] = k, fmt.Sprintf("g%d", k)
		}
		for r := 0; r < 600; r++ {
			codes := make([]int32, len(widths))
			for k, w := range widths {
				codes[k] = int32(src.Intn(w))
			}
			x, z := src.Float64(), 3*src.Float64()
			y := 1 + 2*x - z + float64(codes[0])*x + 0.01*src.NormFloat64()
			cr.AddInPlace(cf, cr.LiftCat(idx, []float64{x, z, y}, catIdx, codes))
		}
		m, a, b, pos, err := catPolySystem(features, cats, "y", cf, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild the system dense, in layout order, from the envelope.
		dim := len(pos)
		full := make([][]float64, dim)
		rhs := make([]float64, dim)
		for p := range full {
			full[p] = make([]float64, dim)
		}
		for p := 0; p < dim; p++ {
			rhs[p] = b[pos[p]]
			for q := 0; q < dim; q++ {
				i, j := max(pos[p], pos[q]), min(pos[p], pos[q])
				if c := j - (i + 1 - len(a[i])); c >= 0 {
					full[p][q] = a[i][c]
				}
			}
		}
		want := denseReference(full, rhs)
		got, err := TrainCatPolyFromCofactor(features, cats, "y", cf, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Theta) != dim || m.Slots() != got.Slots() {
			t.Fatalf("widths %v: dim %d, system %d", widths, len(got.Theta), dim)
		}
		for p := range want {
			if math.Abs(got.Theta[p]-want[p]) > 1e-9*(1+math.Abs(want[p])) {
				t.Fatalf("widths %v: theta[%d] = %v, dense solve in layout order %v", widths, p, got.Theta[p], want[p])
			}
		}
	}
}

// TestCatPolySystemMatchesRawRows holds every entry CatPoly's assembly
// writes to the expanded-space normal equations built straight from the
// raw rows: per row the feature vector {1, x_i, 1[g_k=c], x_i·1[g_k=c]}
// in the layout CatPoly documents, its outer product and its product
// with y, summed, then normalized and ridged as polySystem does. An
// entry outside the envelope must be a structural zero. Widths {2,9,3}
// pair two features that are both not the widest; {} has no categorical
// feature at all.
func TestCatPolySystemMatchesRawRows(t *testing.T) {
	features := []string{"x", "z", "y"}
	const lambda, rows = 1e-3, 600
	src := xrand.New(22)
	for _, widths := range [][]int{{7, 3}, {3, 7}, {4, 4}, {2, 9, 3}, {5}, {}} {
		cr := ring.CofactorRing{N: 3, K: len(widths)}
		cf := cr.Zero()
		catIdx := make([]int, len(widths))
		cats := make([]string, len(widths))
		for k := range widths {
			catIdx[k], cats[k] = k, fmt.Sprintf("g%d", k)
		}
		type row struct {
			cont  []float64
			y     float64
			codes []int32
		}
		raw := make([]row, rows)
		for r := range raw {
			codes := make([]int32, len(widths))
			for k, w := range widths {
				codes[k] = int32(src.Intn(w))
			}
			x, z := src.Float64(), 3*src.Float64()-1
			y := 1 + 2*x - z + 0.01*src.NormFloat64()
			if len(codes) > 0 {
				y += float64(codes[0]) * x
			}
			raw[r] = row{[]float64{x, z}, y, codes}
			cr.AddInPlace(cf, cr.LiftCat([]int{0, 1, 2}, []float64{x, z, y}, catIdx, codes))
		}
		m, a, b, pos, err := catPolySystem(features, cats, "y", cf, lambda)
		if err != nil {
			t.Fatal(err)
		}
		n, S, dim := len(m.Cont), m.Slots(), len(pos)
		xtx, mag, xty, ymag := square(dim), square(dim), make([]float64, dim), make([]float64, dim)
		phi := make([]float64, dim)
		for _, r := range raw {
			clear(phi)
			phi[0] = 1
			copy(phi[1:], r.cont)
			for k, c := range r.codes {
				h, ok := m.CatPos(k, c)
				if !ok {
					t.Fatalf("widths %v: code %d of slot %d has no slot", widths, c, k)
				}
				phi[h] = 1
				for i, v := range r.cont {
					phi[1+n+S+i*S+(h-1-n)] = v
				}
			}
			for p, u := range phi {
				for q, v := range phi {
					xtx[p][q] += u * v
					mag[p][q] += math.Abs(u * v)
				}
				xty[p] += u * r.y
				ymag[p] += math.Abs(u * r.y)
			}
		}
		near := func(got, want, scale float64) bool { return math.Abs(got-want) <= 1e-12*scale }
		for p := range dim {
			i := pos[p]
			if want := xty[p] / rows; !near(b[i], want, ymag[p]/rows) {
				t.Fatalf("widths %v: b of parameter %d = %v, raw rows %v", widths, p, b[i], want)
			}
			for q := range dim {
				j := pos[q]
				if j > i {
					continue
				}
				want, scale := xtx[p][q]/rows, mag[p][q]/rows
				if p == q {
					want += lambda * ridgeScale(want)
					scale *= 1 + lambda
				}
				c := j - (i + 1 - len(a[i]))
				if c < 0 {
					if want != 0 {
						t.Fatalf("widths %v: entry (%d, %d) = %v lies outside the envelope", widths, p, q, want)
					}
					continue
				}
				if !near(a[i][c], want, scale) {
					t.Fatalf("widths %v: entry (%d, %d) = %v, raw rows %v", widths, p, q, a[i][c], want)
				}
			}
		}
	}
}

// layoutSink keeps NewCatLayout's result observable under AllocsPerRun.
var layoutSink *CatLayout

// TestCatLayoutAllocsFlatInK pins a layout derivation — once per epoch
// on a cofactor server — to the same few allocations at any number of
// categorical features: the per-slot tables are carved from shared
// arrays, not made one per slot or pair of slots. The count includes
// the code buffer of the walk over the element's groups.
func TestCatLayoutAllocsFlatInK(t *testing.T) {
	const want = 10
	src := xrand.New(23)
	widths := []int{6, 3, 11, 2}
	for k := 1; k <= len(widths); k++ {
		cr := ring.CofactorRing{N: 2, K: k}
		cf := cr.Zero()
		catIdx := make([]int, k)
		for s := range catIdx {
			catIdx[s] = s
		}
		for range 200 {
			codes := make([]int32, k)
			for s := range codes {
				codes[s] = int32(src.Intn(widths[s]))
			}
			cr.AddInPlace(cf, cr.LiftCat([]int{0, 1}, []float64{src.Float64(), src.Float64()}, catIdx, codes))
		}
		if got := testing.AllocsPerRun(20, func() { layoutSink = NewCatLayout(cf) }); got != want {
			t.Errorf("K = %d: NewCatLayout makes %v allocations, want %d", k, got, want)
		}
	}
}

// retailerSigma is the continuous Retailer design (sf 0.05), assembled
// from an LMFAO covariance batch: no categorical feature, so the GD
// product is the dense one.
func retailerSigma(tb testing.TB) *Sigma {
	tb.Helper()
	d := datagen.Retailer(1, 0.05)
	jt, err := d.Join.BuildJoinTree(d.Root)
	if err != nil {
		tb.Fatal(err)
	}
	var feats []core.Feature
	for _, c := range d.Cont {
		feats = append(feats, core.Feature{Attr: c})
	}
	plan, err := core.Compile(jt, core.CovarianceBatch(feats, d.Response), core.Optimized(2))
	if err != nil {
		tb.Fatal(err)
	}
	results, err := plan.Eval()
	if err != nil {
		tb.Fatal(err)
	}
	sigma, err := AssembleSigma(d.Cont, nil, d.Response, results)
	if err != nil {
		tb.Fatal(err)
	}
	return sigma
}

// threeCatSigma is a one-hot design over three categorical features
// whose first two never hold codes 0 and 0 together: the pair count of
// that cell is zero, as it is for most cells of a sparse join.
func threeCatSigma(tb testing.TB) *Sigma {
	tb.Helper()
	widths := []int{6, 4, 9}
	cr := ring.CofactorRing{N: 3, K: len(widths)}
	cf := cr.Zero()
	src := xrand.New(41)
	for r := 0; r < 2000; r++ {
		codes := make([]int32, len(widths))
		for k, w := range widths {
			codes[k] = int32(src.Intn(w))
		}
		if codes[0] == 0 && codes[1] == 0 {
			codes[1] = 1
		}
		x, z := src.Float64(), 2*src.Float64()
		y := 1 + x - z + 0.3*float64(codes[2]) - 0.5*float64(codes[0]) + 0.01*src.NormFloat64()
		cr.AddInPlace(cf, cr.LiftCat([]int{0, 1, 2}, []float64{x, z, y}, []int{0, 1, 2}, codes))
	}
	sigma, err := NewCatLayout(cf).Sigma([]string{"x", "z", "y"}, []string{"g0", "g1", "g2"}, "y")
	if err != nil {
		tb.Fatal(err)
	}
	p, _ := sigma.CatPos(0, 0)
	q, _ := sigma.CatPos(1, 0)
	if sigma.XtX[p][q] != 0 || sigma.XtX[p][p] == 0 || sigma.XtX[q][q] == 0 {
		tb.Fatalf("codes (0, 0) of g0 and g1: pair moment %v, marginals %v and %v", sigma.XtX[p][q], sigma.XtX[p][p], sigma.XtX[q][q])
	}
	return sigma
}

// denseGD is TrainLinRegGD with the dense Σ·θ product it had before the
// product skipped the one-hot zeros: every row, every column, in order.
func denseGD(s *Sigma, lambda float64, maxIters int, tol float64) (theta []float64, iters int, converged bool) {
	n := s.Size()
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = 1 / math.Sqrt(ridgeScale(s.XtX[i][i]))
	}
	th := make([]float64, n)
	raw := make([]float64, n)
	grad := make([]float64, n)
	safe := 1 / (float64(n) + lambda)
	lr, prev := safe, 0.0
	for ; iters < maxIters; iters++ {
		norm, sy := 0.0, 0.0
		for i := 0; i < n; i++ {
			r := -s.XtY[i]
			for j, v := range s.XtX[i][:n] {
				r += v * raw[j]
			}
			g := d[i]*r + lambda*th[i]
			sy += grad[i] * (grad[i] - g)
			grad[i] = g
			norm += g * g
		}
		if math.Sqrt(norm) < tol {
			converged = true
			break
		}
		if bb := lr * prev / sy; iters > 0 && sy > 0 && bb <= math.MaxFloat64 {
			lr = bb
		} else {
			lr = safe
		}
		prev = norm
		for i := 0; i < n; i++ {
			th[i] -= lr * grad[i]
			raw[i] = d[i] * th[i]
		}
	}
	return raw, iters, converged
}

// TestGDSkipsOneHotZerosBitwise: the product that skips each one-hot
// row's own block adds only ±0 less than the dense one, so the descent
// is the dense descent bit for bit — parameters, iteration count and
// convergence — with and without categorical features.
func TestGDSkipsOneHotZerosBitwise(t *testing.T) {
	for _, c := range []struct {
		name  string
		sigma *Sigma
	}{{"tenant229", tenantSigma(t)}, {"retailer", retailerSigma(t)}, {"threecat", threeCatSigma(t)}} {
		for _, budget := range []int{5000, 7} {
			got := TrainLinRegGD(c.sigma, 1e-3, budget, 1e-10)
			theta, iters, converged := denseGD(c.sigma, 1e-3, budget, 1e-10)
			if got.Iterations != iters || got.Converged != converged {
				t.Fatalf("%s, budget %d: %d iterations (converged %v), dense %d (%v)",
					c.name, budget, got.Iterations, got.Converged, iters, converged)
			}
			for i, v := range theta {
				if math.Float64bits(got.Theta[i]) != math.Float64bits(v) {
					t.Fatalf("%s, budget %d: theta[%d] = %v, dense %v", c.name, budget, i, got.Theta[i], v)
				}
			}
		}
	}
}

func BenchmarkTrainLinRegGD(b *testing.B) {
	for _, c := range []struct {
		name  string
		sigma *Sigma
	}{{"retailer", retailerSigma(b)}, {"tenant229", tenantSigma(b)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var m *LinReg
			for i := 0; i < b.N; i++ {
				m = TrainLinRegGD(c.sigma, 1e-3, 5000, 1e-10)
			}
			b.ReportMetric(float64(m.Iterations), "iterations")
			if !m.Converged {
				b.ReportMetric(1, "unconverged")
			}
		})
	}
}

func BenchmarkCatPoly(b *testing.B) {
	features, cats, cf := tenantCofactor(b, 200, 40000)
	b.Run("tenant904/assemble", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, pos, err := catPolySystem(features, cats, "units", cf, 1e-3); err != nil || len(pos) != 904 {
				b.Fatal(len(pos), err)
			}
		}
	})
	b.Run("tenant904/system", func(b *testing.B) { // assemble less the layout, which a round derives once
		L := NewCatLayout(cf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, pos, err := L.polySystem(features, cats, "units", 1e-3); err != nil || len(pos) != 904 {
				b.Fatal(len(pos), err)
			}
		}
	})
	b.Run("tenant904/solve", func(b *testing.B) {
		_, a, rhs, _, err := catPolySystem(features, cats, "units", cf, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		benchSolve(b, a, rhs)
	})
	b.Run("tenant904/train", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TrainCatPolyFromCofactor(features, cats, "units", cf, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSolve times choleskySolve alone: the system is copied into a
// scratch of the same shape outside the timer.
func benchSolve(b *testing.B, a [][]float64, rhs []float64) {
	scratch := make([][]float64, len(a))
	for i := range a {
		scratch[i] = make([]float64, len(a[i]))
	}
	x := make([]float64, len(rhs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := range a {
			copy(scratch[r], a[r])
		}
		copy(x, rhs)
		b.StartTimer()
		if _, err := choleskySolve(scratch, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	src := xrand.New(5)
	rhs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Float64()
		}
		return v
	}
	blocks := make([]int, 200)
	for k := range blocks {
		blocks[k] = 4
	}
	blocked, first := blockedSPD(src, blocks, 104, 0)
	for _, c := range []struct {
		name string
		a    [][]float64
	}{
		{"dense229", envelopeOf(blockedSPD(src, nil, 229, 0))},
		{"dense904", envelopeOf(blockedSPD(src, nil, 904, 0))},
		{"blocked904", envelopeOf(blocked, first)},
	} {
		b.Run(c.name, func(b *testing.B) { benchSolve(b, c.a, rhs(len(c.a))) })
	}
}

// ObjectiveFromSigma evaluates the (normalized) objective both trainers
// minimize, ½·MSE + ½λ·Σᵢ Σᵢᵢ·θᵢ² — the ridge penalty is the
// standardized one, weighted by each feature's second moment — at the
// model's parameters, entirely from the moments.
func (m *LinReg) ObjectiveFromSigma(s *Sigma) float64 {
	obj := 0.5 * m.MSEFromSigma(s)
	for i, th := range m.Theta {
		obj += 0.5 * m.Lambda * ridgeScale(s.XtX[i][i]) * th * th
	}
	return obj
}

// catPolySystem is CatLayout.polySystem over a fresh layout of cf.
func catPolySystem(features, catFeatures []string, response string, cf *ring.Cofactor, lambda float64) (*CatPoly, [][]float64, []float64, []int, error) {
	return NewCatLayout(cf).polySystem(features, catFeatures, response, lambda)
}
