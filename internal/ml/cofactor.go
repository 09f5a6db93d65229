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
// touches data — the snapshot already is the aggregate batch — and every
// bridge reads the element through one CatLayout.
package ml

import (
	"fmt"
	"math"
	"slices"

	"borg/internal/query"
	"borg/internal/ring"
)

// CatLayout is what the cofactor bridges read of one cofactor element,
// derived in one pass over its groups:
//
//   - the one-hot layout: per categorical slot the codes live in the
//     element, ascending, and a dense code → rank table;
//   - each group's ranks, G×K in group-key order, beside the group;
//   - the aggregates the designs are assembled from: the marginal triple,
//     one triple per (slot, code), and the co-occurrence counts of every
//     pair of slots.
//
// Each aggregate adds the groups in key order: bit for bit the fold a
// walk of the element makes. Root groups have full support (Lo = 0, N
// features), as every bridge assumes. A layout is never written once
// built: any number of trainers may read one at once, and the serving
// tier derives one per published epoch.
type CatLayout struct {
	N, K   int
	codes  [][]int32      // per slot: the live codes, ascending
	rank   [][]int32      // per slot: code → rank in codes (see rankOf)
	groups []*ring.Covar  // in key order
	ranks  []int32        // group g's rank in slot k at g*K+k, -1 where unbound
	total  ring.Covar     // the sum of every group
	slot   [][]ring.Covar // slot k, rank r: the sum of the groups holding that code
	pair   [][]float64    // pair[k*K+l], k < l: the count of ranks (a, b) at a*len(codes[l])+b
}

// NewCatLayout derives the layout of a cofactor element. Its tables are
// carved from a few arrays — the groups' codes, the rank tables with
// the code lists, and the triples with the pair counts, one each — so a
// derivation makes the same handful of allocations at any K.
func NewCatLayout(cf *ring.Cofactor) *CatLayout {
	n, k, ng := cf.N, cf.K, cf.NumGroups()
	L := &CatLayout{N: n, K: k, groups: make([]*ring.Covar, 0, ng)}
	ints := make([]int32, ng*k+k)
	L.ranks = ints[:ng*k]
	top := ints[ng*k:] // one past the largest live code per slot
	cf.Each(func(codes []int32, g *ring.Covar) {
		copy(L.ranks[len(L.groups)*k:], codes)
		L.groups = append(L.groups, g)
		for s, c := range codes {
			top[s] = max(top[s], c+1)
		}
	})
	size := 0
	for _, t := range top {
		size += 2 * int(t) // a rank table and a code list at most as long
	}
	tables, lists := make([]int32, size), make([][]int32, 2*k)
	L.codes, L.rank = lists[:k:k], lists[k:]
	cells := 1
	for s := range L.rank {
		rank := tables[:top[s]:top[s]] // 1 marks a live code, then holds its rank
		tables = tables[top[s]:]
		nlive := 0
		for i := s; i < len(L.ranks); i += k {
			if c := L.ranks[i]; c >= 0 && rank[c] == 0 {
				rank[c] = 1
				nlive++
			}
		}
		L.codes[s], tables = tables[:0:nlive], tables[nlive:]
		for c, live := range rank {
			rank[c] = -1
			if live == 1 {
				rank[c] = int32(len(L.codes[s]))
				L.codes[s] = append(L.codes[s], int32(c))
			}
		}
		L.rank[s] = rank
		cells += nlive
	}
	for i, c := range L.ranks {
		L.ranks[i] = int32(rankOf(L.rank[i%k], c))
	}

	w, npair := n+n*n, 0
	for s := range k {
		for t := s + 1; t < k; t++ {
			npair += len(L.codes[s]) * len(L.codes[t])
		}
	}
	buf := make([]float64, cells*w+npair)
	buf, pairs := buf[:cells*w], buf[cells*w:]
	carve := func() ring.Covar {
		c := ring.Covar{N: n, Sum: buf[:n:n], Q: buf[n:w:w]}
		buf = buf[w:]
		return c
	}
	L.total = carve()
	slot := make([]ring.Covar, cells-1)
	L.slot, L.pair = make([][]ring.Covar, k), make([][]float64, k*k)
	for s, codes := range L.codes {
		L.slot[s], slot = slot[:len(codes):len(codes)], slot[len(codes):]
		for r := range codes {
			L.slot[s][r] = carve()
		}
		for t := s + 1; t < k; t++ {
			m := len(codes) * len(L.codes[t])
			L.pair[s*k+t], pairs = pairs[:m:m], pairs[m:]
		}
	}
	for gi, g := range L.groups {
		L.total.AddInPlace(g)
		r := L.ranks[gi*k:][:k]
		for s, a := range r {
			if a < 0 {
				continue // unbound: only in partial products
			}
			L.slot[s][a].AddInPlace(g)
			for t := s + 1; t < k; t++ {
				if b := r[t]; b >= 0 {
					L.pair[s*k+t][int(a)*len(L.codes[t])+int(b)] += g.Count
				}
			}
		}
	}
	return L
}

// check is the bridges' shared precondition: the name lists match the
// layout (features nil: not given), and the groups' summed count — the
// marginal's — reaches one tuple, or the error wraps ErrEmptySnapshot.
func (L *CatLayout) check(features, catFeatures []string) error {
	if features != nil && L.N != len(features) {
		return fmt.Errorf("ml: cofactor has %d continuous features, name list has %d", L.N, len(features))
	}
	if L.K != len(catFeatures) {
		return fmt.Errorf("ml: cofactor has %d categorical slots, name list has %d", L.K, len(catFeatures))
	}
	return support(L.total.Count, 1)
}

// design checks the name lists and lays out the one-hot design of a
// response: the continuous features but the response, in order, then
// every slot's live codes. idx and ry index the element's features.
func (L *CatLayout) design(features, catFeatures []string, response string) (d Design, idx []int, ry int, err error) {
	if err = L.check(features, catFeatures); err != nil {
		return d, nil, 0, err
	}
	if d, idx, ry, err = splitResponse(features, response); err != nil {
		return d, nil, 0, err
	}
	d.Cat = slices.Clone(catFeatures)
	d.setCats(L.codes, L.rank)
	return d, idx, ry, nil
}

// Sigma builds the normalized one-hot moment matrix of a response, laid
// out EXACTLY like AssembleSigma over a covariance aggregate batch:
// intercept, then the continuous features (the maintained list minus the
// response, in order), then the one-hot expansion of every categorical
// slot with observed codes sorted. features names the element's
// continuous variables in index order and must contain the response;
// catFeatures names the categorical slots. Every entry is one of the
// layout's aggregates: assembling it walks no group.
func (L *CatLayout) Sigma(features, catFeatures []string, response string) (*Sigma, error) {
	d, idx, ry, err := L.design(features, catFeatures, response)
	if err != nil {
		return nil, err
	}
	s := newSigma(d, idx, ry, &L.total)
	inv := 1 / s.Count
	for k, cells := range L.slot {
		for r := range cells {
			g, p := &cells[r], d.catBase[k]+r
			s.set(0, p, g.Count*inv)
			s.set(p, p, g.Count*inv)
			for i, gi := range idx {
				s.set(d.ContPos(i), p, g.Sum[gi]*inv)
			}
			s.XtY[p] = g.Sum[ry] * inv
		}
		for l := k + 1; l < L.K; l++ {
			w := len(L.codes[l])
			for c, v := range L.pair[k*L.K+l] {
				s.set(d.catBase[k]+c/w, d.catBase[l]+c%w, v*inv)
			}
		}
	}
	return s, nil
}

// PredictDesign evaluates the model on raw continuous values (Cont
// order) and categorical codes (Cat order) through the design layout.
// Codes never observed during training have an all-zero one-hot block.
func (m *LinReg) PredictDesign(x []float64, codes []int32) float64 {
	p := m.Theta[0]
	for i := range m.Cont {
		p += m.Theta[m.ContPos(i)] * x[i]
	}
	for k := range m.Cat {
		if q, ok := m.CatPos(k, codes[k]); ok {
			p += m.Theta[q]
		}
	}
	return p
}

// MutualInfo computes the pairwise mutual-information matrix (in nats)
// of the categorical slots: the slot marginals and pairwise joints are
// group-count marginalizations, so the matrix equals ml.MutualInfo over a
// core.MutualInfoBatch evaluation of the same live tuples.
func (L *CatLayout) MutualInfo(catFeatures []string) ([][]float64, error) {
	if err := L.check(nil, catFeatures); err != nil {
		return nil, err
	}
	total := L.total.Count
	mi := square(L.K)
	for i := 0; i < L.K; i++ {
		for j := i + 1; j < L.K; j++ {
			w, v := len(L.codes[j]), 0.0
			for c, n := range L.pair[i*L.K+j] {
				pxy := n / total
				if pxy <= 0 {
					continue
				}
				px, py := L.slot[i][c/w].Count/total, L.slot[j][c%w].Count/total
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

// CatTreeConfig configures CatLayout.CTree. Zero values pick the
// TrainCART defaults (depth 4, minimum 2 join tuples per node).
type CatTreeConfig struct {
	MaxDepth int
	MinRows  float64
}

// CTree trains a CART-style regression tree whose splits are
// category-equality predicates, scored entirely from the cofactor
// element's group-by aggregates: a node's (count, Σy, Σy²) under any
// conjunction of EQ/NE categorical filters is a partial sum of group
// statistics, so the per-node aggregate batches TrainCART evaluates over
// the join reduce here to in-memory folds. Thresholded continuous splits
// need per-threshold statistics the cofactor does not carry; the tree is
// categorical-splits-only by construction.
func (L *CatLayout) CTree(features, catFeatures []string, response string, cfg CatTreeConfig) (*Tree, error) {
	_, _, ry, err := L.design(features, catFeatures, response)
	if err != nil {
		return nil, err
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.MinRows <= 0 {
		cfg.MinRows = 2
	}
	b := &catTree{L: L, cats: catFeatures, cfg: cfg, stats: make([]nodeStats, len(L.groups)), per: make([][]nodeStats, L.K)}
	in := make([]int32, len(L.groups))
	for g, c := range L.groups {
		b.stats[g] = nodeStats{n: c.Count, sy: c.Sum[ry], syy: c.Q[ry*L.N+ry]}
		in[g] = int32(g)
	}
	for k := range b.per {
		b.per[k] = make([]nodeStats, len(L.codes[k]))
	}
	b.spill = make([]int32, 0, len(in))
	t := &Tree{Response: response}
	t.Root = b.node(in, 0, t)
	return t, nil
}

// catTree grows a CTree. A node is the list of its groups, in key order.
type catTree struct {
	L     *CatLayout
	cats  []string
	cfg   CatTreeConfig
	stats []nodeStats   // per group: the response's count, sum and sum of squares
	per   [][]nodeStats // per slot and rank: the node's groups holding that code
	spill []int32       // a split's no side, on its way back into the node
}

func (s *nodeStats) add(o nodeStats) { s.n, s.sy, s.syy = s.n+o.n, s.sy+o.sy, s.syy+o.syy }

func (b *catTree) node(in []int32, depth int, t *Tree) *TreeNode {
	var total nodeStats
	for _, g := range in {
		total.add(b.stats[g])
	}
	t.Nodes++
	node := &TreeNode{Value: total.mean(), Count: total.n, SSE: total.sse()}
	if depth >= b.cfg.MaxDepth || total.n < b.cfg.MinRows {
		node.Leaf = true
		return node
	}

	// Choose the split minimizing the summed child SSE — the same
	// scoring, guards and margin as TrainCART's consider(). A code none
	// of the node's groups holds weighs 0, which the guard refuses.
	K := b.L.K
	bestCost := total.sse() - 1e-9
	bestK, bestR := -1, 0
	for k, per := range b.per {
		clear(per)
		for _, g := range in {
			if r := b.L.ranks[int(g)*K+k]; r >= 0 {
				per[r].add(b.stats[g])
			}
		}
		for r, s := range per {
			rest := nodeStats{n: total.n - s.n, sy: total.sy - s.sy, syy: total.syy - s.syy}
			if s.n < b.cfg.MinRows/2 || rest.n < b.cfg.MinRows/2 {
				continue
			}
			if cost := s.sse() + rest.sse(); cost < bestCost {
				bestCost, bestK, bestR = cost, k, r
			}
		}
	}
	if bestK < 0 {
		node.Leaf = true
		return node
	}

	node.Cond = query.Filter{Attr: b.cats[bestK], Op: query.EQ, Code: b.L.codes[bestK][bestR]}
	// Split in place and stably: the yes groups to the front, the rest
	// behind them, both still in key order.
	yes, no := in[:0], b.spill[:0]
	for _, g := range in {
		if b.L.ranks[int(g)*K+bestK] == int32(bestR) {
			yes = append(yes, g)
		} else {
			no = append(no, g)
		}
	}
	copy(in[len(yes):], no)
	node.True = b.node(in[:len(yes)], depth+1, t)
	node.False = b.node(in[len(yes):], depth+1, t)
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

// CatPoly is a varying-coefficients degree-2 model: linear in the
// expanded space {1, x_i, 1[g_k=c], x_i·1[g_k=c]} — per-category
// intercept shifts plus per-category slopes for every continuous
// feature, the categorical analogue of degree-2 polynomial regression.
// All of its sufficient statistics are cofactor group moments.
type CatPoly struct {
	// Design lays out the intercept, the continuous slopes and the
	// one-hot shifts: slot s of Slots() at 1+n+s, features in order and
	// codes sorted.
	Design
	// Theta is laid out as Design, then the interactions x_i×slot_s at
	// 1+n+S+i*S+s.
	Theta  []float64
	Lambda float64
}

// Slots returns the total number of one-hot slots S.
func (m *CatPoly) Slots() int { return m.Size() - 1 - len(m.Cont) }

// PredictVec evaluates the model on raw continuous values (Cont order)
// and categorical codes (Cat order). Unobserved codes contribute no
// shift and no interaction.
func (m *CatPoly) PredictVec(x []float64, codes []int32) float64 {
	n, s := len(m.Cont), m.Slots()
	p := m.Theta[0]
	for i := 0; i < n; i++ {
		p += m.Theta[1+i] * x[i]
	}
	for k := range m.Cat {
		h, ok := m.CatPos(k, codes[k])
		if !ok {
			continue
		}
		p += m.Theta[h]
		for i := 0; i < n; i++ {
			p += m.Theta[h+s+i*s] * x[i]
		}
	}
	return p
}

// TrainCatPolyFromCofactor trains the varying-coefficients model from a
// cofactor element (see CatLayout.TrainCatPoly).
//
//borg:vet-ok deadexport — history_test.go's batch reference for the served polyreg
func TrainCatPolyFromCofactor(features, catFeatures []string, response string, cf *ring.Cofactor, lambda float64) (*CatPoly, error) {
	return NewCatLayout(cf).TrainCatPoly(features, catFeatures, response, lambda)
}

// TrainCatPoly trains the varying-coefficients model by assembling the
// expanded-space normal equations (every needed moment is a
// group-restricted count, sum or second moment) and solving the
// standardized-ridge system in closed form, the widest categorical
// feature eliminated first, grouped per code.
func (L *CatLayout) TrainCatPoly(features, catFeatures []string, response string, lambda float64) (*CatPoly, error) {
	m, a, b, pos, err := L.polySystem(features, catFeatures, response, lambda)
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

// polySystem lays the model out and assembles its ridge system a x = b
// in choleskySolve's envelope form; layout parameter p is unknown pos[p].
func (L *CatLayout) polySystem(features, catFeatures []string, response string, lambda float64) (m *CatPoly, a [][]float64, b []float64, pos []int, err error) {
	d, idx, ry, err := L.design(features, catFeatures, response)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m = &CatPoly{Design: d, Lambda: lambda}
	n, S := len(idx), m.Slots()
	dim := 1 + n + S + n*S
	cp := func(i int) int { return 1 + i }
	hp := func(s int) int { return 1 + n + s }
	ip := func(i, s int) int { return 1 + n + S + i*S + s }
	slot := func(k, r int) int { return d.catBase[k] - 1 - n + r }

	// The system is assembled where it is solved, in elimination order
	// and envelope form. The shift and the n slopes of one code of the
	// categorical feature with the most observed codes sit together, code
	// after code, ahead of every other parameter: two codes of one
	// feature never occur in the same group, so the moments between their
	// parameters are structurally zero — (n+1)×(n+1) diagonal blocks,
	// whose rows start at their block. The rows after are stored whole.
	ints := make([]int, 2*dim)
	pos, first := ints[:dim], ints[dim:dim] // first: per unknown, the column its row starts at
	for p := range pos {
		pos[p] = -1
	}
	place := func(p, f int) { // the next unknown is p
		pos[p] = len(first)
		first = append(first, f)
	}
	wide, codes := widest(d.catCodes)
	for r := range codes {
		s, f := slot(wide, r), len(first)
		place(hp(s), f)
		for i := 0; i < n; i++ {
			place(ip(i, s), f)
		}
	}
	for p := range pos {
		if pos[p] < 0 {
			place(p, 0)
		}
	}
	a, b = envelope(first)
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
	mom := func(g *ring.Covar, i, j int) float64 { return g.Q[i*L.N+j] }

	// The intercept and the continuous features: the marginal.
	t := &L.total
	add(0, 0, t.Count)
	b[pos[0]] += t.Sum[ry]
	for i, gi := range idx {
		add(0, cp(i), t.Sum[gi])
		b[pos[cp(i)]] += mom(t, gi, ry)
		for j := i; j < n; j++ {
			add(cp(i), cp(j), mom(t, gi, idx[j]))
		}
	}
	// One code's shift and slopes, against those and against themselves:
	// the code's aggregate.
	for k, cells := range L.slot {
		for r := range cells {
			g, s := &cells[r], slot(k, r)
			add(0, hp(s), g.Count)
			add(hp(s), hp(s), g.Count)
			b[pos[hp(s)]] += g.Sum[ry]
			for i, gi := range idx {
				add(cp(i), hp(s), g.Sum[gi])
				add(0, ip(i, s), g.Sum[gi])
				add(hp(s), ip(i, s), g.Sum[gi])
				b[pos[ip(i, s)]] += mom(g, gi, ry)
				for j, gj := range idx {
					add(cp(j), ip(i, s), mom(g, gi, gj))
					if i <= j {
						add(ip(i, s), ip(j, s), mom(g, gi, gj))
					}
				}
			}
		}
	}
	// Codes of two features against each other: the groups holding both,
	// one walk. Against the group's code s of the widest feature, each
	// code u of another feature has n+1 rows in the border — its shift
	// and its slopes — and each of them meets s's block in the n+1
	// columns from pos[hp(s)] on, in block order (s's shift, then its
	// slopes): the walk writes those straight, one row at a time. Pairs
	// of two other features go through add.
	K := L.K
	for gi, g := range L.groups {
		r := L.ranks[gi*K:][:K]
		if K > 0 && r[wide] >= 0 {
			f := pos[hp(slot(wide, int(r[wide])))]
			for l, rl := range r {
				if l == wide || rl < 0 {
					continue
				}
				u := slot(l, int(rl))
				// A joined group's Q need not be bitwise symmetric: read
				// it as add's pairs (k < l) do, the earlier feature's
				// variable first — the column's when the widest is first.
				mr, mc := 1, L.N
				if l < wide {
					mr, mc = L.N, 1
				}
				row := a[pos[hp(u)]][f : f+1+n]
				row[0] += g.Count
				for i, xi := range idx {
					row[1+i] += g.Sum[xi]
				}
				for j, xj := range idx {
					row := a[pos[ip(j, u)]][f : f+1+n]
					row[0] += g.Sum[xj]
					for i, xi := range idx {
						row[1+i] += g.Q[xj*mr+xi*mc]
					}
				}
			}
		}
		for k, rk := range r {
			if k == wide || rk < 0 {
				continue
			}
			s := slot(k, int(rk))
			for l := k + 1; l < K; l++ {
				if l == wide || r[l] < 0 {
					continue
				}
				u := slot(l, int(r[l]))
				add(hp(s), hp(u), g.Count)
				for i, xi := range idx {
					add(hp(s), ip(i, u), g.Sum[xi])
					add(hp(u), ip(i, s), g.Sum[xi])
					for j, xj := range idx {
						add(ip(i, s), ip(j, u), mom(g, xi, xj))
					}
				}
			}
		}
	}
	inv := 1 / t.Count
	for i, row := range a {
		for j := range row {
			row[j] *= inv
		}
		row[len(row)-1] += lambda * ridgeScale(row[len(row)-1])
		b[i] *= inv
	}
	return m, a, b, pos, nil
}
