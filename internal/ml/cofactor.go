// Cofactor-to-model bridges: the trainers that consume one categorical
// cofactor ring element (ring.Cofactor) as maintained by the serving
// tier's PayloadCofactor servers. The element's per-group covariance
// triples are the joint sufficient statistics of the WHOLE mixed
// continuous/categorical zoo: one-hot ridge regression and LS-SVM
// (group marginals are exactly the one-hot blocks of AssembleSigma),
// Chow–Liu trees (pairwise category co-occurrence counts are group
// marginalizations), CART-style trees over categorical splits (per-node
// aggregates are partial group sums), and varying-coefficient degree-2
// models (interaction moments are the group-restricted sums). No bridge
// touches data — the snapshot already is the aggregate batch.
package ml

import (
	"fmt"
	"math"
	"sort"

	"borg/internal/query"
	"borg/internal/ring"
)

// CheckCofactor is the support gate of the cofactor bridges: the groups'
// summed count (the marginal's) must reach minCount, or the error wraps
// ErrEmptySnapshot. It allocates nothing; finiteness needs the whole
// marginal, which a caller holding it checks with CheckSnapshot.
func CheckCofactor(cf *ring.Cofactor, minCount float64) error {
	return support(cf.Count(), minCount)
}

// checkCofactor is the bridges' shared precondition: cf matches the name
// lists (features nil: not given) and passes CheckCofactor.
func checkCofactor(features, catFeatures []string, cf *ring.Cofactor) error {
	if features != nil && cf.N != len(features) {
		return fmt.Errorf("ml: cofactor has %d continuous features, name list has %d", cf.N, len(features))
	}
	if cf.K != len(catFeatures) {
		return fmt.Errorf("ml: cofactor has %d categorical slots, name list has %d", cf.K, len(catFeatures))
	}
	return CheckCofactor(cf, 1)
}

// SigmaFromCofactor builds the normalized one-hot moment matrix from a
// cofactor element, laid out EXACTLY like AssembleSigma over a
// covariance aggregate batch: intercept, then the continuous features
// (the maintained list minus the response, in order), then the one-hot
// expansion of every categorical slot with observed codes sorted.
// features names the element's continuous variables in index order and
// must contain the response; catFeatures names the categorical slots.
func SigmaFromCofactor(features, catFeatures []string, response string, cf *ring.Cofactor) (*Sigma, error) {
	if err := checkCofactor(features, catFeatures, cf); err != nil {
		return nil, err
	}
	ry := -1
	var cont []string
	var idx []int // global continuous index of each model feature
	for i, f := range features {
		if f == response {
			ry = i
			continue
		}
		cont = append(cont, f)
		idx = append(idx, i)
	}
	if ry < 0 {
		return nil, fmt.Errorf("ml: response %s is not a maintained feature", response)
	}

	d := Design{Cont: cont, Cat: append([]string(nil), catFeatures...), Response: response}
	d.catCodes, d.catSlot = observedCodes(cf)
	pos := 1 + len(cont)
	for k := range d.catCodes {
		for _, c := range d.catCodes[k] {
			d.catSlot[k][c] = pos
			pos++
		}
	}
	d.totalSize = pos

	n := d.totalSize
	s := &Sigma{Design: d, XtY: make([]float64, n)}
	s.XtX = make([][]float64, n)
	for i := range s.XtX {
		s.XtX[i] = make([]float64, n)
	}
	// Accumulate RAW moments into the upper triangle (every block pair
	// below has p <= q by construction: intercept < continuous < one-hot
	// slots, and slots of later features sit at higher positions).
	count, yty := 0.0, 0.0
	cf.Each(func(codes []int32, g *ring.Covar) {
		count += g.Count
		for i, gi := range idx {
			p := d.ContPos(i)
			s.XtX[0][p] += g.Sum[gi]
			for j := i; j < len(idx); j++ {
				s.XtX[p][d.ContPos(j)] += g.Q[gi*cf.N+idx[j]]
			}
			s.XtY[p] += g.Q[gi*cf.N+ry]
		}
		s.XtY[0] += g.Sum[ry]
		yty += g.Q[ry*cf.N+ry]
		for k, c := range codes {
			p, ok := d.CatPos(k, c)
			if !ok {
				continue // unbound slot: only in partial products
			}
			s.XtX[0][p] += g.Count
			s.XtX[p][p] += g.Count
			for i, gi := range idx {
				s.XtX[d.ContPos(i)][p] += g.Sum[gi]
			}
			s.XtY[p] += g.Sum[ry]
			for l := k + 1; l < len(codes); l++ {
				if q, ok := d.CatPos(l, codes[l]); ok {
					s.XtX[p][q] += g.Count
				}
			}
		}
	})
	s.Count = count
	inv := 1 / count
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			v := s.XtX[p][q] * inv
			s.XtX[p][q], s.XtX[q][p] = v, v
		}
	}
	s.XtX[0][0] = 1
	for p := range s.XtY {
		s.XtY[p] *= inv
	}
	s.YtY = yty * inv
	return s, nil
}

// observedCodes collects the per-slot category codes live in the
// element, sorted for a deterministic one-hot layout (the same order
// AssembleSigma derives from the group-by results).
func observedCodes(cf *ring.Cofactor) ([][]int32, []map[int32]int) {
	seen := make([]map[int32]bool, cf.K)
	for k := range seen {
		seen[k] = make(map[int32]bool)
	}
	cf.Each(func(codes []int32, _ *ring.Covar) {
		for k, c := range codes {
			if c >= 0 {
				seen[k][c] = true
			}
		}
	})
	catCodes := make([][]int32, cf.K)
	catSlot := make([]map[int32]int, cf.K)
	for k := range seen {
		codes := make([]int32, 0, len(seen[k]))
		for c := range seen[k] {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
		catCodes[k] = codes
		catSlot[k] = make(map[int32]int, len(codes))
	}
	return catCodes, catSlot
}

// VectorOf fills out with the dense design vector of one example given
// its continuous values (Cont order) and categorical codes (Cat order).
// Codes never observed during training map to an all-zero one-hot block.
func (d *Design) VectorOf(x []float64, codes []int32, out []float64) {
	for i := range out {
		out[i] = 0
	}
	out[0] = 1
	for i := range d.Cont {
		out[d.ContPos(i)] = x[i]
	}
	for k := range d.Cat {
		if p, ok := d.CatPos(k, codes[k]); ok {
			out[p] = 1
		}
	}
}

// PredictDesign evaluates the model on raw continuous values (Cont
// order) and categorical codes (Cat order) through the design layout.
func (m *LinReg) PredictDesign(x []float64, codes []int32) float64 {
	vec := make([]float64, m.Size())
	m.VectorOf(x, codes, vec)
	p := 0.0
	for i, v := range vec {
		p += m.Theta[i] * v
	}
	return p
}

// MutualInfoFromCofactor computes the pairwise mutual-information matrix
// (in nats) of the categorical slots from a cofactor element: the slot
// marginals and pairwise joints are group-count marginalizations, so the
// matrix equals ml.MutualInfo over a core.MutualInfoBatch evaluation of
// the same live tuples.
func MutualInfoFromCofactor(catFeatures []string, cf *ring.Cofactor) ([][]float64, error) {
	if err := checkCofactor(nil, catFeatures, cf); err != nil {
		return nil, err
	}
	k := cf.K
	total := 0.0
	marg := make([]map[int32]float64, k)
	for i := range marg {
		marg[i] = make(map[int32]float64)
	}
	joint := make([]map[[2]int32]float64, k*k) // i*k+j for i<j
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			joint[i*k+j] = make(map[[2]int32]float64)
		}
	}
	cf.Each(func(codes []int32, g *ring.Covar) {
		total += g.Count
		for i, c := range codes {
			marg[i][c] += g.Count
			for j := i + 1; j < k; j++ {
				joint[i*k+j][[2]int32{c, codes[j]}] += g.Count
			}
		}
	})

	mi := make([][]float64, k)
	for i := range mi {
		mi[i] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			jm := joint[i*k+j]
			keys := make([][2]int32, 0, len(jm))
			for key := range jm {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(a, b int) bool {
				if keys[a][0] != keys[b][0] {
					return keys[a][0] < keys[b][0]
				}
				return keys[a][1] < keys[b][1]
			})
			v := 0.0
			for _, key := range keys {
				pxy := jm[key] / total
				if pxy <= 0 {
					continue
				}
				px, py := marg[i][key[0]]/total, marg[j][key[1]]/total
				v += pxy * math.Log(pxy/(px*py))
			}
			if v < 0 && v > -1e-12 {
				v = 0 // clamp float noise
			}
			mi[i][j], mi[j][i] = v, v
		}
	}
	return mi, nil
}

// CatTreeConfig configures TrainCTreeFromCofactor. Zero values pick the
// TrainCART defaults (depth 4, minimum 2 join tuples per node).
type CatTreeConfig struct {
	MaxDepth int
	MinRows  float64
}

// TrainCTreeFromCofactor trains a CART-style regression tree whose
// splits are category-equality predicates, scored entirely from the
// cofactor element's group-by aggregates: a node's (count, Σy, Σy²)
// under any conjunction of EQ/NE categorical filters is a partial sum of
// group statistics, so the per-node aggregate batches TrainCART
// evaluates over the join reduce here to in-memory folds. Thresholded
// continuous splits need per-threshold statistics the cofactor does not
// carry; the tree is categorical-splits-only by construction.
func TrainCTreeFromCofactor(features, catFeatures []string, response string, cf *ring.Cofactor, cfg CatTreeConfig) (*Tree, error) {
	if err := checkCofactor(features, catFeatures, cf); err != nil {
		return nil, err
	}
	ry := -1
	for i, f := range features {
		if f == response {
			ry = i
		}
	}
	if ry < 0 {
		return nil, fmt.Errorf("ml: response %s is not a maintained feature", response)
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.MinRows <= 0 {
		cfg.MinRows = 2
	}
	var groups []catGroup
	cf.Each(func(codes []int32, g *ring.Covar) {
		groups = append(groups, catGroup{
			codes: append([]int32(nil), codes...),
			s:     nodeStats{n: g.Count, sy: g.Sum[ry], syy: g.Q[ry*cf.N+ry]},
		})
	})
	t := &Tree{Response: response}
	t.Root = buildCatNode(groups, catFeatures, cfg, 0, t)
	return t, nil
}

// catGroup is one categorical group's response statistics.
type catGroup struct {
	codes []int32
	s     nodeStats
}

func buildCatNode(groups []catGroup, cats []string, cfg CatTreeConfig, depth int, t *Tree) *TreeNode {
	var total nodeStats
	for _, g := range groups {
		total.n += g.s.n
		total.sy += g.s.sy
		total.syy += g.s.syy
	}
	t.Nodes++
	node := &TreeNode{Value: total.mean(), Count: total.n}
	if depth >= cfg.MaxDepth || total.n < cfg.MinRows {
		node.Leaf = true
		return node
	}

	// Choose the split minimizing the summed child SSE — the same
	// scoring, guards and margin as TrainCART's consider().
	bestCost := total.sse() - 1e-9
	bestK, bestCode, found := 0, int32(0), false
	for k := range cats {
		per := make(map[int32]nodeStats)
		var codes []int32
		for _, g := range groups {
			c := g.codes[k]
			s, ok := per[c]
			if !ok {
				codes = append(codes, c)
			}
			s.n += g.s.n
			s.sy += g.s.sy
			s.syy += g.s.syy
			per[c] = s
		}
		sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
		for _, c := range codes {
			s := per[c]
			rest := nodeStats{n: total.n - s.n, sy: total.sy - s.sy, syy: total.syy - s.syy}
			if s.n < cfg.MinRows/2 || rest.n < cfg.MinRows/2 {
				continue
			}
			if cost := s.sse() + rest.sse(); cost < bestCost {
				bestCost = cost
				bestK, bestCode, found = k, c, true
			}
		}
	}
	if !found {
		node.Leaf = true
		return node
	}

	node.Cond = query.Filter{Attr: cats[bestK], Op: query.EQ, Code: bestCode}
	var yes, no []catGroup
	for _, g := range groups {
		if g.codes[bestK] == bestCode {
			yes = append(yes, g)
		} else {
			no = append(no, g)
		}
	}
	node.True = buildCatNode(yes, cats, cfg, depth+1, t)
	node.False = buildCatNode(no, cats, cfg, depth+1, t)
	return node
}

// LSSVM is a least-squares linear SVM (ridge regression of a ±1 label
// on the one-hot design — the LS-SVM formulation, whose normal
// equations are exactly the one-hot moment matrix). Training is the
// closed-form ridge solve; classification thresholds the decision value
// at zero.
type LSSVM struct {
	*LinReg
}

// TrainLSSVM trains the classifier from an assembled moment matrix
// whose response column carries a ±1 label.
func TrainLSSVM(s *Sigma, lambda float64) (*LSSVM, error) {
	m, err := TrainLinRegClosedForm(s, lambda)
	if err != nil {
		return nil, err
	}
	return &LSSVM{LinReg: m}, nil
}

// DecisionValue evaluates w·φ(x)+b on raw continuous values (Cont
// order) and categorical codes (Cat order).
func (m *LSSVM) DecisionValue(x []float64, codes []int32) float64 {
	return m.PredictDesign(x, codes)
}

// Classify returns the predicted label: +1 when the decision value is
// nonnegative, -1 otherwise.
func (m *LSSVM) Classify(x []float64, codes []int32) float64 {
	if m.DecisionValue(x, codes) >= 0 {
		return 1
	}
	return -1
}

// CatPoly is a varying-coefficients degree-2 model: linear in the
// expanded space {1, x_i, 1[g_k=c], x_i·1[g_k=c]} — per-category
// intercept shifts plus per-category slopes for every continuous
// feature, the categorical analogue of degree-2 polynomial regression.
// All of its sufficient statistics are cofactor group moments.
type CatPoly struct {
	Cont     []string
	Cat      []string
	Response string
	// CatCodes holds the observed codes per categorical feature, sorted —
	// the one-hot slot order.
	CatCodes [][]int32
	// Theta is laid out: intercept, continuous slopes, one-hot shifts
	// (feature-major, codes sorted), then interactions x_i×slot_s at
	// 1+n+S+i*S+s.
	Theta   []float64
	Lambda  float64
	slotOf  []map[int32]int // code → flat slot index per cat feature
	numSlot int
}

// Slots returns the total number of one-hot slots S.
func (m *CatPoly) Slots() int { return m.numSlot }

// Dim returns the parameter count.
func (m *CatPoly) Dim() int { return len(m.Theta) }

// PredictVec evaluates the model on raw continuous values (Cont order)
// and categorical codes (Cat order). Unobserved codes contribute no
// shift and no interaction.
func (m *CatPoly) PredictVec(x []float64, codes []int32) float64 {
	n, s := len(m.Cont), m.numSlot
	p := m.Theta[0]
	for i := 0; i < n; i++ {
		p += m.Theta[1+i] * x[i]
	}
	for k := range m.Cat {
		slot, ok := m.slotOf[k][codes[k]]
		if !ok {
			continue
		}
		p += m.Theta[1+n+slot]
		for i := 0; i < n; i++ {
			p += m.Theta[1+n+s+i*s+slot] * x[i]
		}
	}
	return p
}

// TrainCatPolyFromCofactor trains the varying-coefficients model from a
// cofactor element by assembling the expanded-space normal equations
// (every needed moment is a group-restricted count, sum or second
// moment) and solving the standardized-ridge system in closed form, the
// widest categorical feature eliminated first, grouped per code.
func TrainCatPolyFromCofactor(features, catFeatures []string, response string, cf *ring.Cofactor, lambda float64) (*CatPoly, error) {
	m, a, b, pos, err := catPolySystem(features, catFeatures, response, cf, lambda)
	if err != nil {
		return nil, err
	}
	x, err := choleskySolve(a, b)
	if err != nil {
		return nil, err
	}
	m.Theta = make([]float64, len(pos))
	for p := range m.Theta {
		m.Theta[p] = x[pos[p]]
	}
	return m, nil
}

// catPolySystem lays the model out and assembles its ridge system a x = b
// in choleskySolve's envelope form; layout parameter p is unknown pos[p].
func catPolySystem(features, catFeatures []string, response string, cf *ring.Cofactor, lambda float64) (m *CatPoly, a [][]float64, b []float64, pos []int, err error) {
	if err := checkCofactor(features, catFeatures, cf); err != nil {
		return nil, nil, nil, nil, err
	}
	ry := -1
	var cont []string
	var idx []int
	for i, f := range features {
		if f == response {
			ry = i
			continue
		}
		cont = append(cont, f)
		idx = append(idx, i)
	}
	if ry < 0 {
		return nil, nil, nil, nil, fmt.Errorf("ml: response %s is not a maintained feature", response)
	}

	m = &CatPoly{Cont: cont, Cat: append([]string(nil), catFeatures...), Response: response, Lambda: lambda}
	m.CatCodes, m.slotOf, m.numSlot = observedCodesFlat(cf)

	n, S := len(cont), m.numSlot
	dim := 1 + n + S + n*S
	cp := func(i int) int { return 1 + i }
	hp := func(s int) int { return 1 + n + s }
	ip := func(i, s int) int { return 1 + n + S + i*S + s }

	// The system is assembled where it is solved, in elimination order
	// and envelope form. The shift and the n slopes of one code of the
	// categorical feature with the most observed codes sit together, code
	// after code, ahead of every other parameter: two codes of one
	// feature never occur in the same group, so the moments between their
	// parameters are structurally zero — (n+1)×(n+1) diagonal blocks,
	// whose rows start at their block. The rows after are stored whole.
	pos = make([]int, dim)
	for p := range pos {
		pos[p] = -1
	}
	a = make([][]float64, 0, dim)
	place := func(p, first int) { // the next unknown is p, its row starts at column first
		pos[p] = len(a)
		a = append(a, make([]float64, len(a)+1-first))
	}
	wide, codes := widest(m.CatCodes)
	for _, c := range codes {
		s, first := m.slotOf[wide][c], len(a)
		place(hp(s), first)
		for i := 0; i < n; i++ {
			place(ip(i, s), first)
		}
	}
	for p := range pos {
		if pos[p] < 0 {
			place(p, 0)
		}
	}
	// add accumulates v into the symmetric entry (p, q), given in layout
	// positions; an entry outside the envelope is an index panic.
	add := func(p, q int, v float64) {
		p, q = pos[p], pos[q]
		if p < q {
			p, q = q, p
		}
		row := a[p]
		row[len(row)-1-(p-q)] += v
	}

	b = make([]float64, dim)
	count := 0.0
	act := make([]int, cf.K)
	cf.Each(func(codes []int32, g *ring.Covar) {
		count += g.Count
		for k, c := range codes {
			act[k] = -1 // unbound slot (partial products only): no one-hot
			if s, ok := m.slotOf[k][c]; ok {
				act[k] = s
			}
		}
		mom := func(i, j int) float64 { return g.Q[idx[i]*cf.N+idx[j]] }
		momY := func(i int) float64 { return g.Q[idx[i]*cf.N+ry] }

		add(0, 0, g.Count)
		b[pos[0]] += g.Sum[ry]
		for i := 0; i < n; i++ {
			add(0, cp(i), g.Sum[idx[i]])
			b[pos[cp(i)]] += momY(i)
			for j := i; j < n; j++ {
				add(cp(i), cp(j), mom(i, j))
			}
		}
		for k := 0; k < cf.K; k++ {
			s := act[k]
			if s < 0 {
				continue
			}
			add(0, hp(s), g.Count)
			b[pos[hp(s)]] += g.Sum[ry]
			for i := 0; i < n; i++ {
				add(cp(i), hp(s), g.Sum[idx[i]])
				add(0, ip(i, s), g.Sum[idx[i]])
				b[pos[ip(i, s)]] += momY(i)
				for j := 0; j < n; j++ {
					add(cp(j), ip(i, s), mom(i, j))
				}
			}
			for l := k; l < cf.K; l++ {
				u := act[l]
				if u < 0 {
					continue
				}
				add(hp(s), hp(u), g.Count)
				for i := 0; i < n; i++ {
					add(hp(s), ip(i, u), g.Sum[idx[i]])
					if l > k {
						add(hp(u), ip(i, s), g.Sum[idx[i]])
					}
					for j := 0; j < n; j++ {
						if l > k || i <= j {
							add(ip(i, s), ip(j, u), mom(i, j))
						}
					}
				}
			}
		}
	})
	inv := 1 / count
	for i, row := range a {
		for j := range row {
			row[j] *= inv
		}
		row[len(row)-1] += lambda * ridgeScale(row[len(row)-1])
		b[i] *= inv
	}
	return m, a, b, pos, nil
}

// observedCodesFlat collects sorted observed codes per slot plus a flat
// slot index over all categorical features (feature-major, codes
// sorted), as CatPoly's layout needs.
func observedCodesFlat(cf *ring.Cofactor) ([][]int32, []map[int32]int, int) {
	catCodes, slots := observedCodes(cf)
	flat := 0
	for k := range catCodes {
		for _, c := range catCodes[k] {
			slots[k][c] = flat
			flat++
		}
	}
	return catCodes, slots, flat
}
