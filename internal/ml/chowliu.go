package ml

import (
	"fmt"
	"math"

	"borg/internal/query"
)

// Chow–Liu trees from a MutualInfoBatch: pairwise mutual information of
// the categorical attributes is estimated from grouped counts over the
// join, and the maximum-weight spanning tree over MI is the best
// tree-structured distribution approximation. This is the "mutual inf."
// workload row of Figure 5, used for model selection.

// MutualInfo computes the pairwise MI matrix (in nats) of the given
// categorical attributes from the results of a core.MutualInfoBatch
// evaluation.
func MutualInfo(cats []string, results []*query.AggResult) ([][]float64, error) {
	byID := make(map[string]*query.AggResult, len(results))
	for _, r := range results {
		byID[r.Spec.ID] = r
	}
	total, ok := byID["mi_count"]
	if !ok {
		return nil, fmt.Errorf("ml: MI batch missing mi_count")
	}
	n := total.Scalar
	if n <= 0 {
		return nil, fmt.Errorf("ml: MI over empty join")
	}
	marg := make([]map[int32]float64, len(cats))
	for i, g := range cats {
		r, ok := byID["mi_"+g]
		if !ok {
			return nil, fmt.Errorf("ml: MI batch missing mi_%s", g)
		}
		marg[i] = make(map[int32]float64, len(r.Groups))
		for k, v := range r.Groups {
			marg[i][k[0]] = v / n
		}
	}
	mi := square(len(cats))
	for i := range cats {
		for j := i + 1; j < len(cats); j++ {
			r, ok := byID[fmt.Sprintf("mi_%s_%s", cats[i], cats[j])]
			if !ok {
				return nil, fmt.Errorf("ml: MI batch missing mi_%s_%s", cats[i], cats[j])
			}
			v := 0.0
			for k, c := range r.Groups {
				pxy := c / n
				if pxy <= 0 {
					continue
				}
				px, py := marg[i][k[0]], marg[j][k[1]]
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

// TreeEdge is one edge of a Chow–Liu tree.
type TreeEdge struct {
	A, B int
	MI   float64
}

// ChowLiu returns the maximum spanning tree of the MI matrix (Prim's
// algorithm) — the Chow–Liu dependency tree of the attributes.
func ChowLiu(mi [][]float64) []TreeEdge {
	n := len(mi)
	if n <= 1 {
		return nil
	}
	inTree := make([]bool, n)
	bestTo := make([]int, n)
	bestMI := make([]float64, n)
	for i := range bestMI {
		bestMI[i] = math.Inf(-1)
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestMI[j] = mi[0][j] // bestTo[j] is 0 already
	}
	var edges []TreeEdge
	for len(edges) < n-1 {
		pick, best := -1, math.Inf(-1)
		for j := 0; j < n; j++ {
			if !inTree[j] && bestMI[j] > best {
				pick, best = j, bestMI[j]
			}
		}
		if pick < 0 {
			break
		}
		inTree[pick] = true
		edges = append(edges, TreeEdge{A: bestTo[pick], B: pick, MI: best})
		for j := 0; j < n; j++ {
			if !inTree[j] && mi[pick][j] > bestMI[j] {
				bestMI[j] = mi[pick][j]
				bestTo[j] = pick
			}
		}
	}
	return edges
}
