package core

import (
	"fmt"
	"sort"
	"strings"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
)

// Options selects which of the LMFAO optimizations are active. The zero
// value is the fully de-optimized baseline (the AC/DC-like configuration
// at the left edge of Figure 6).
type Options struct {
	// Specialize compiles each slot's local computation into a typed
	// closure over the node's column slices at plan time. When false,
	// every row interprets the slot's factor/filter descriptors afresh —
	// the interpretive overhead that query compilation removes.
	Specialize bool
	// Share deduplicates identical slots by signature. When false, each
	// aggregate gets private copies of all of its partial aggregates,
	// recomputing identical work per aggregate.
	Share bool
	// Runtime configures the shared morsel-driven execution runtime
	// (internal/exec) that schedules every node scan. Runtime.Workers
	// below 2 is the serial path — the parallelization-off baseline of
	// Figure 6. Pin Runtime.MorselSize to make results bitwise
	// reproducible across worker counts.
	Runtime exec.Runtime
}

// Optimized returns the fully optimized configuration with the given
// parallelism.
func Optimized(workers int) Options {
	return Options{Specialize: true, Share: true, Runtime: exec.Runtime{Workers: workers}}
}

// Plan is a compiled aggregate batch over a rooted join tree.
type Plan struct {
	Tree  *query.JoinTree
	Specs []query.AggSpec
	opts  Options

	nodes    map[*query.TreeNode]*nodePlan
	bottomUp []*nodePlan
	root     *nodePlan
	// rootSlot[i] is the slot index at the root holding spec i's result;
	// rootPerm[i] remaps the slot's canonical (sorted) group attributes
	// to the spec's GroupBy order.
	rootSlot []int
	rootPerm [][]int
}

// nodePlan carries the compiled slots of one join-tree node.
type nodePlan struct {
	tn  *query.TreeNode
	rel *relation.Relation

	parentKeyCols []int // columns of rel forming the key to the parent
	children      []*nodePlan
	childKeyCols  [][]int // per child: columns of rel matching the child's join attrs

	slots []*slot
	sigIx map[string]int

	view nodeView // filled by Eval
}

// localFactor is one continuous multiplicand evaluated at this node.
type localFactor struct {
	col   int
	power int
}

// localFilter is one filter conjunct evaluated at this node.
type localFilter struct {
	col int
	f   query.Filter
}

// slot is one partial aggregate computed at a node: the restriction of
// one or more batch aggregates to the node's subtree.
type slot struct {
	// groupAttrs is the canonical (name-sorted) list of categorical
	// group-by attributes located in this subtree and carried upward.
	groupAttrs []string
	// localGroupCols/localGroupPos give, for each group attribute stored
	// on this node's relation, its column and its position in groupAttrs.
	localGroupCols []int
	localGroupPos  []int

	factors []localFactor
	filters []localFilter

	// childSlot[i] is the referenced slot index in children[i]'s plan.
	// childGroupPos[i] maps positions of the child slot's groupAttrs to
	// positions in this slot's groupAttrs.
	childSlot     []int
	childGroupPos [][]int

	// scalarOnly is true when no group-by attribute occurs anywhere in
	// the subtree: the payload is a single float64 — the hot path.
	scalarOnly bool

	// evalLocal is the specialized row evaluator (set when
	// Options.Specialize): returns the local factor product and whether
	// the row passes the local filters.
	evalLocal func(row int) (float64, bool)

	sig string
}

// Compile decomposes the batch over the join tree. All spec attributes
// must be covered by the tree's relations.
func Compile(tree *query.JoinTree, specs []query.AggSpec, opts Options) (*Plan, error) {
	if opts.Runtime.Workers < 1 {
		opts.Runtime.Workers = 1
	}
	p := &Plan{
		Tree:     tree,
		Specs:    specs,
		opts:     opts,
		nodes:    make(map[*query.TreeNode]*nodePlan),
		rootSlot: make([]int, len(specs)),
		rootPerm: make([][]int, len(specs)),
	}

	// Build node plans and key columns, bottom-up.
	for _, tn := range tree.BottomUp {
		np := &nodePlan{tn: tn, rel: tn.Rel, sigIx: make(map[string]int)}
		for _, a := range tn.JoinAttrs {
			c := tn.Rel.AttrIndex(a)
			if c < 0 {
				return nil, fmt.Errorf("core: node %s missing join attribute %s", tn.Rel.Name, a)
			}
			np.parentKeyCols = append(np.parentKeyCols, c)
		}
		for _, ctn := range tn.Children {
			cp := p.nodes[ctn]
			np.children = append(np.children, cp)
			var cols []int
			for _, a := range ctn.JoinAttrs {
				c := tn.Rel.AttrIndex(a)
				if c < 0 {
					return nil, fmt.Errorf("core: node %s missing child join attribute %s", tn.Rel.Name, a)
				}
				cols = append(cols, c)
			}
			np.childKeyCols = append(np.childKeyCols, cols)
		}
		p.nodes[tn] = np
		p.bottomUp = append(p.bottomUp, np)
	}
	p.root = p.nodes[tree.Root]

	// Attribute ownership: each attribute belongs to the topmost tree
	// node whose relation contains it, so factors and group-bys are
	// applied exactly once even though join attributes occur in several
	// relations.
	owner := make(map[string]*query.TreeNode)
	var assign func(tn *query.TreeNode)
	assign = func(tn *query.TreeNode) {
		for _, a := range tn.Rel.Attrs() {
			if _, taken := owner[a.Name]; !taken {
				owner[a.Name] = tn
			}
		}
		for _, c := range tn.Children {
			assign(c)
		}
	}
	assign(tree.Root)

	for i := range specs {
		if err := specs[i].Validate(tree.Join); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		si, err := p.synthesize(tree.Root, &specs[i], owner, i)
		if err != nil {
			return nil, err
		}
		p.rootSlot[i] = si
		// Remap canonical sorted group order to the spec's order.
		s := p.root.slots[si]
		perm := make([]int, len(specs[i].GroupBy))
		for gi, g := range specs[i].GroupBy {
			found := -1
			for ci, cg := range s.groupAttrs {
				if cg == g {
					found = ci
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("core: aggregate %s: group-by %s lost during decomposition", specs[i].ID, g)
			}
			perm[gi] = found
		}
		p.rootPerm[i] = perm
	}
	return p, nil
}

// restriction collects the parts of a spec owned by nodes of one subtree.
type restriction struct {
	factors []query.Factor
	filters []query.Filter
	groups  []string
}

// synthesize builds (or reuses) the slot for the given spec restricted to
// the subtree rooted at tn, returning its index in tn's node plan. specIdx
// disambiguates signatures when sharing is disabled.
func (p *Plan) synthesize(tn *query.TreeNode, spec *query.AggSpec, owner map[string]*query.TreeNode, specIdx int) (int, error) {
	r := restriction{
		factors: spec.Factors,
		filters: spec.Filters,
		groups:  spec.GroupBy,
	}
	return p.synthesizeRestriction(tn, r, owner, specIdx)
}

func (p *Plan) synthesizeRestriction(tn *query.TreeNode, r restriction, owner map[string]*query.TreeNode, specIdx int) (int, error) {
	np := p.nodes[tn]
	s := &slot{}

	inSubtree := subtreeMembership(tn)

	// Split the restriction into local parts and per-child restrictions.
	childRestr := make([]restriction, len(tn.Children))
	locate := func(attr string) (int, bool, error) {
		o := owner[attr]
		if o == tn {
			return -1, true, nil
		}
		for ci, c := range tn.Children {
			if inSubtree[c][o] {
				return ci, false, nil
			}
		}
		return 0, false, fmt.Errorf("core: attribute %s not in subtree of %s", attr, tn.Rel.Name)
	}
	for _, f := range r.factors {
		ci, local, err := locate(f.Attr)
		if err != nil {
			return 0, err
		}
		if local {
			s.factors = append(s.factors, localFactor{col: np.rel.AttrIndex(f.Attr), power: f.Power})
		} else {
			childRestr[ci].factors = append(childRestr[ci].factors, f)
		}
	}
	for _, f := range r.filters {
		ci, local, err := locate(f.Attr)
		if err != nil {
			return 0, err
		}
		if local {
			s.filters = append(s.filters, localFilter{col: np.rel.AttrIndex(f.Attr), f: f})
		} else {
			childRestr[ci].filters = append(childRestr[ci].filters, f)
		}
	}
	var localGroups []string
	for _, g := range r.groups {
		ci, local, err := locate(g)
		if err != nil {
			return 0, err
		}
		if local {
			localGroups = append(localGroups, g)
		} else {
			childRestr[ci].groups = append(childRestr[ci].groups, g)
		}
	}

	// Canonical group order: sorted by name across local + child groups.
	all := append([]string(nil), localGroups...)
	for ci := range childRestr {
		all = append(all, childRestr[ci].groups...)
	}
	sort.Strings(all)
	if len(all) > query.MaxGroupBy {
		return 0, fmt.Errorf("core: slot at %s needs %d group attributes, max %d", tn.Rel.Name, len(all), query.MaxGroupBy)
	}
	s.groupAttrs = all
	pos := make(map[string]int, len(all))
	for i, g := range all {
		pos[g] = i
	}
	for _, g := range localGroups {
		s.localGroupCols = append(s.localGroupCols, np.rel.AttrIndex(g))
		s.localGroupPos = append(s.localGroupPos, pos[g])
	}

	// Children: recurse; attribute-free restrictions become count slots.
	for ci, ctn := range tn.Children {
		csi, err := p.synthesizeRestriction(ctn, childRestr[ci], owner, specIdx)
		if err != nil {
			return 0, err
		}
		s.childSlot = append(s.childSlot, csi)
		cslot := p.nodes[ctn].slots[csi]
		gm := make([]int, len(cslot.groupAttrs))
		for i, g := range cslot.groupAttrs {
			gm[i] = pos[g]
		}
		s.childGroupPos = append(s.childGroupPos, gm)
	}
	s.scalarOnly = len(s.groupAttrs) == 0

	// Deduplicate by signature (the sharing optimization).
	s.sig = s.signature(np)
	if !p.opts.Share {
		s.sig = fmt.Sprintf("%s#%d", s.sig, specIdx)
	}
	if ix, ok := np.sigIx[s.sig]; ok {
		return ix, nil
	}
	if p.opts.Specialize {
		s.evalLocal = specializeLocal(np.rel, s)
	}
	np.slots = append(np.slots, s)
	np.sigIx[s.sig] = len(np.slots) - 1
	return len(np.slots) - 1, nil
}

// signature canonically serializes the slot's computation for sharing.
func (s *slot) signature(np *nodePlan) string {
	var b strings.Builder
	b.WriteString("g:")
	b.WriteString(strings.Join(s.groupAttrs, ","))
	b.WriteString(";f:")
	fs := make([]string, len(s.factors))
	for i, f := range s.factors {
		fs[i] = fmt.Sprintf("%d^%d", f.col, f.power)
	}
	sort.Strings(fs)
	b.WriteString(strings.Join(fs, ","))
	b.WriteString(";w:")
	ws := make([]string, len(s.filters))
	for i, f := range s.filters {
		ws[i] = fmt.Sprintf("%d/%d/%g/%d/%v", f.col, f.f.Op, f.f.Threshold, f.f.Code, f.f.Codes)
	}
	sort.Strings(ws)
	b.WriteString(strings.Join(ws, ","))
	b.WriteString(";c:")
	for i, cs := range s.childSlot {
		fmt.Fprintf(&b, "%d=%d,", i, cs)
	}
	return b.String()
}

// subtreeMembership returns, for each child of tn, the set of tree nodes
// in that child's subtree.
func subtreeMembership(tn *query.TreeNode) map[*query.TreeNode]map[*query.TreeNode]bool {
	out := make(map[*query.TreeNode]map[*query.TreeNode]bool, len(tn.Children))
	for _, c := range tn.Children {
		m := make(map[*query.TreeNode]bool)
		var walk func(n *query.TreeNode)
		walk = func(n *query.TreeNode) {
			m[n] = true
			for _, cc := range n.Children {
				walk(cc)
			}
		}
		walk(c)
		out[c] = m
	}
	return out
}

// specializeLocal compiles the slot's local product and filters into a
// closure over the relation's column slices.
func specializeLocal(rel *relation.Relation, s *slot) func(row int) (float64, bool) {
	type ff struct {
		vals  []float64
		power int
	}
	facs := make([]ff, len(s.factors))
	for i, f := range s.factors {
		facs[i] = ff{vals: rel.Col(f.col).F, power: f.power}
	}
	filters := s.filters
	switch {
	case len(filters) == 0 && len(facs) == 0:
		return func(int) (float64, bool) { return 1, true }
	case len(filters) == 0 && len(facs) == 1 && facs[0].power == 1:
		v := facs[0].vals
		return func(row int) (float64, bool) { return v[row], true }
	case len(filters) == 0 && len(facs) == 1 && facs[0].power == 2:
		v := facs[0].vals
		return func(row int) (float64, bool) { x := v[row]; return x * x, true }
	case len(filters) == 0 && len(facs) == 2 && facs[0].power == 1 && facs[1].power == 1:
		v0, v1 := facs[0].vals, facs[1].vals
		return func(row int) (float64, bool) { return v0[row] * v1[row], true }
	}
	rel2 := rel
	return func(row int) (float64, bool) {
		for i := range filters {
			if !filters[i].f.Eval(rel2, filters[i].col, row) {
				return 0, false
			}
		}
		v := 1.0
		for i := range facs {
			x := facs[i].vals[row]
			switch facs[i].power {
			case 1:
				v *= x
			case 2:
				v *= x * x
			default:
				for p := 0; p < facs[i].power; p++ {
					v *= x
				}
			}
		}
		return v, true
	}
}
