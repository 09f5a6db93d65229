package ml

import (
	"fmt"
	"math"

	"borg/internal/core"
	"borg/internal/query"
	"borg/internal/relation"
)

// CART builds regression trees over the join the way Section 2.2
// describes: every node evaluates ONE aggregate batch (filtered counts,
// response sums, response sums-of-squares per candidate split) through
// LMFAO, picks the split with the lowest residual variance, and recurses
// with the chosen predicate appended to the node's filter conjunction.
// The data matrix is never materialized.

// TreeConfig configures CART training.
type TreeConfig struct {
	Features []core.Feature
	Response string
	// Thresholds lists candidate split points per continuous feature.
	Thresholds map[string][]float64
	MaxDepth   int
	// MinRows stops splitting nodes lighter than this many join tuples.
	MinRows float64
	// Engine options for the per-node batches.
	Opts core.Options
}

// TreeNode is one node of a trained regression tree. Internal nodes route
// rows satisfying Cond to True and the rest to False.
type TreeNode struct {
	Leaf  bool
	Value float64 // prediction at leaves; node mean everywhere
	Count float64
	SSE   float64 // Σ (y − Value)² over the node's tuples
	Cond  query.Filter
	True  *TreeNode
	False *TreeNode
}

// Tree is a trained CART regression tree.
type Tree struct {
	Root     *TreeNode
	Response string
	// Nodes counts all tree nodes, for reporting.
	Nodes int
}

// TrainCART trains a regression tree over the join tree.
func TrainCART(jt *query.JoinTree, cfg TreeConfig) (*Tree, error) {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.MinRows <= 0 {
		cfg.MinRows = 2
	}
	t := &Tree{Response: cfg.Response}
	root, err := buildNode(jt, cfg, nil, 0, t)
	if err != nil {
		return nil, err
	}
	t.Root = root
	return t, nil
}

// nodeStats reconstructs (count, mean, sse) from the three aggregates.
type nodeStats struct{ n, sy, syy float64 }

func (s nodeStats) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sy / s.n
}

func (s nodeStats) sse() float64 {
	if s.n == 0 {
		return 0
	}
	return s.syy - s.sy*s.sy/s.n
}

func buildNode(jt *query.JoinTree, cfg TreeConfig, path []query.Filter, depth int, t *Tree) (*TreeNode, error) {
	specs := core.DecisionNodeBatch(cfg.Features, cfg.Response, cfg.Thresholds)
	// The node's path filters apply to every aggregate of the batch.
	for i := range specs {
		specs[i].Filters = append(append([]query.Filter(nil), path...), specs[i].Filters...)
	}
	plan, err := core.Compile(jt, specs, cfg.Opts)
	if err != nil {
		return nil, err
	}
	results, err := plan.Eval()
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*query.AggResult, len(results))
	for _, r := range results {
		byID[r.Spec.ID] = r
	}
	total := nodeStats{
		n:   byID["node_count"].Scalar,
		sy:  byID["node_sy"].Scalar,
		syy: byID["node_syy"].Scalar,
	}
	t.Nodes++
	node := &TreeNode{Value: total.mean(), Count: total.n, SSE: total.sse()}
	if depth >= cfg.MaxDepth || total.n < cfg.MinRows {
		node.Leaf = true
		return node, nil
	}

	// Choose the split minimizing the summed child SSE.
	bestCost := total.sse() - 1e-9
	var bestCond *query.Filter
	consider := func(cond query.Filter, s nodeStats) {
		rest := nodeStats{n: total.n - s.n, sy: total.sy - s.sy, syy: total.syy - s.syy}
		if s.n < cfg.MinRows/2 || rest.n < cfg.MinRows/2 {
			return
		}
		if cost := s.sse() + rest.sse(); cost < bestCost {
			bestCost = cost
			c := cond
			bestCond = &c
		}
	}
	for _, f := range cfg.Features {
		if f.Categorical {
			ns := byID["n_"+f.Attr]
			sys := byID["sy_"+f.Attr]
			syys := byID["syy_"+f.Attr]
			for key, n := range ns.Groups {
				s := nodeStats{n: n, sy: sys.Groups[key], syy: syys.Groups[key]}
				consider(query.Filter{Attr: f.Attr, Op: query.EQ, Code: key[0]}, s)
			}
			continue
		}
		for ti := range cfg.Thresholds[f.Attr] {
			s := nodeStats{
				n:   byID[fmt.Sprintf("n_%s_%d", f.Attr, ti)].Scalar,
				sy:  byID[fmt.Sprintf("sy_%s_%d", f.Attr, ti)].Scalar,
				syy: byID[fmt.Sprintf("syy_%s_%d", f.Attr, ti)].Scalar,
			}
			consider(query.Filter{Attr: f.Attr, Op: query.GE, Threshold: cfg.Thresholds[f.Attr][ti]}, s)
		}
	}
	if bestCond == nil {
		node.Leaf = true
		return node, nil
	}

	node.Cond = *bestCond
	truePath := append(append([]query.Filter(nil), path...), *bestCond)
	falsePath := append(append([]query.Filter(nil), path...), negate(*bestCond))
	if node.True, err = buildNode(jt, cfg, truePath, depth+1, t); err != nil {
		return nil, err
	}
	if node.False, err = buildNode(jt, cfg, falsePath, depth+1, t); err != nil {
		return nil, err
	}
	return node, nil
}

// negate returns the complement predicate of a split condition.
func negate(f query.Filter) query.Filter {
	switch f.Op {
	case query.GE:
		return query.Filter{Attr: f.Attr, Op: query.LT, Threshold: f.Threshold}
	case query.LT:
		return query.Filter{Attr: f.Attr, Op: query.GE, Threshold: f.Threshold}
	case query.EQ:
		return query.Filter{Attr: f.Attr, Op: query.NE, Code: f.Code}
	case query.NE:
		return query.Filter{Attr: f.Attr, Op: query.EQ, Code: f.Code}
	}
	panic(fmt.Sprintf("ml: cannot negate filter op %d", f.Op))
}

// Predict routes one row of a materialized data matrix through the tree.
func (t *Tree) Predict(data *relation.Relation, row int) (float64, error) {
	n := t.Root
	for !n.Leaf {
		col := data.AttrIndex(n.Cond.Attr)
		if col < 0 {
			return 0, fmt.Errorf("ml: data matrix missing split attribute %s", n.Cond.Attr)
		}
		if n.Cond.Eval(data, col, row) {
			n = n.True
		} else {
			n = n.False
		}
	}
	return n.Value, nil
}

// RMSE validates the tree against a materialized data matrix.
//
//borg:vet-ok deadexport — trainrmse_test.go's oracle for the served tree's TrainingRMSE
func (t *Tree) RMSE(data *relation.Relation) (float64, error) {
	yc := data.AttrIndex(t.Response)
	if yc < 0 {
		return 0, fmt.Errorf("ml: data matrix missing response %s", t.Response)
	}
	if data.NumRows() == 0 {
		return 0, fmt.Errorf("ml: empty data matrix")
	}
	sse := 0.0
	for row := 0; row < data.NumRows(); row++ {
		p, err := t.Predict(data, row)
		if err != nil {
			return 0, err
		}
		e := p - data.Float(yc, row)
		sse += e * e
	}
	return math.Sqrt(sse / float64(data.NumRows())), nil
}

// TrainingRMSE is the tree's root-mean-square error over the tuples it
// was trained on, √(Σ leaf SSE / Count), from the statistics its builder
// kept at every node: no data access.
func (t *Tree) TrainingRMSE() (float64, error) {
	if t.Root.Count == 0 {
		return 0, fmt.Errorf("ml: tree trained on no tuples")
	}
	return math.Sqrt(max(t.Root.leafSSE(), 0) / t.Root.Count), nil
}

func (n *TreeNode) leafSSE() float64 {
	if n.Leaf {
		return n.SSE
	}
	return n.True.leafSSE() + n.False.leafSSE()
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var d func(n *TreeNode) int
	d = func(n *TreeNode) int {
		if n == nil || n.Leaf {
			return 0
		}
		l, r := d(n.True), d(n.False)
		if r > l {
			l = r
		}
		return 1 + l
	}
	return d(t.Root)
}
