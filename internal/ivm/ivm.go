// Package ivm implements incremental maintenance of the covariance
// matrix — the sufficient statistics of linear regression — under
// general deltas (tuple inserts AND deletes; an update is the pair) on
// the relations of a feature-extraction join, in the three designs
// compared by Figure 4 (right) of the paper:
//
//   - First-order IVM (classical delta processing): no intermediate
//     views. Every insert evaluates its full delta query against the
//     base relations, separately for every aggregate of the batch.
//
//   - Higher-order IVM (DBToaster-style): one materialized view hierarchy
//     *per aggregate* over the join tree. Deltas propagate along the
//     leaf-to-root path with index lookups, but the hundreds of
//     aggregates of a covariance matrix are maintained independently.
//
//   - F-IVM: ONE view hierarchy whose payloads are covariance-ring
//     triples (internal/ring), so a single propagation pass maintains
//     every aggregate of the batch simultaneously — the sharing that
//     Section 5.2 credits for the orders-of-magnitude throughput gap.
//
// F-IVM is the maintainer the serving tier runs, and the only one that
// carries the poly2 and cofactor payloads. The two scalar strategies are
// the Figure 4 baselines: they maintain the covariance payload only,
// one tuple at a time. All three implement Maintainer, and for that
// payload they are tested for equivalence against batch recomputation
// and against each other. Batch ingest ((*FIVM).ApplyBatch, batch.go)
// is F-IVM's alone.
//
// Deletes reuse each strategy's insert machinery with the contribution
// negated: the covariance ring supports retraction algebraically
// (CovarRing.Neg), a scalar aggregate delta just flips sign, and a
// first-order delta query is the same join evaluated with weight -1.
// The live join-tree state shrinks for real — rows leave the relations
// by swap-delete and the hash indexes drop their ids — so memory tracks
// the live database, not the churn history.
//
// Scope note (documented substitution): the Figure 4 comparison covers
// the continuous features, which matches the F-IVM covariance experiment;
// categorical interactions (F-IVM's cofactor payload) would change
// constants, not the relative shape.
package ivm

import (
	"fmt"
	"slices"
	"strings"

	"borg/internal/exec"
	"borg/internal/plan"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

// Tuple is one streamed row for the named relation, in schema order. The
// same value identifies a row on the insert and the delete path: a
// delete retracts one occurrence of an equal-valued row (multiset
// semantics), so producers never need to hold internal row ids.
type Tuple struct {
	Rel    string
	Values []relation.Value
}

// Option configures a maintainer at construction. All three strategies
// accept the same options; the scalar strategies reject a payload other
// than PayloadCovar.
type Option func(*options)

type options struct {
	payload Payload
	cards   map[string]int
}

func buildOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Payload selects which ring element the maintainers carry — the one
// payload-generic knob that replaced the old lifted bool when the third
// payload arrived.
type Payload int

const (
	// PayloadCovar maintains the covariance-ring triple (ring.Covar):
	// COUNT, SUM(x_i), SUM(x_i*x_j) over the continuous features. The
	// default.
	PayloadCovar Payload = iota
	// PayloadPoly2 maintains the lifted degree-2 ring (ring.Poly2):
	// every moment SUM(Πx^p) of total degree ≤ 4, the sufficient
	// statistics of degree-2 polynomial regression. The covariance
	// statistics are the degree-≤2 prefix, so Count/Sum/Moment/Snapshot
	// stay exact and a published epoch's Lifted becomes non-nil.
	PayloadPoly2
	// PayloadCofactor maintains the categorical cofactor ring
	// (ring.Cofactor): the covariance triple per group of categorical
	// values. Categorical features become legal in the feature list,
	// SnapshotCofactor and a published epoch's Cofactor become non-nil,
	// and the continuous statistics (the ring.CofactorRoot's running
	// marginal over all groups) stay exact.
	PayloadCofactor
)

// String names the payload the way ServerOptions/flags spell it.
func (p Payload) String() string {
	switch p {
	case PayloadPoly2:
		return "poly2"
	case PayloadCofactor:
		return "cofactor"
	default:
		return "covar"
	}
}

// ParsePayload resolves a payload name as String spells it ("" is
// covar), as flags and configs use it.
func ParsePayload(name string) (Payload, error) {
	switch name {
	case "covar", "":
		return PayloadCovar, nil
	case "poly2":
		return PayloadPoly2, nil
	case "cofactor":
		return PayloadCofactor, nil
	}
	return PayloadCovar, fmt.Errorf("ivm: unknown payload %q (want covar, poly2, or cofactor)", name)
}

// WithPayload selects the maintained ring payload. Maintenance cost is
// payload-dependent: poly2 grows the per-payload constant to C(n+4,4)
// moments, cofactor multiplies it by the number of live categorical
// groups.
func WithPayload(p Payload) Option {
	return func(o *options) { o.payload = p }
}

// WithCardinalities hands the planner per-relation cardinalities to
// order the join tree by (greedy smallest-first child attachment, see
// internal/plan). Without it the maintainer keeps the legacy static
// order — the live relations start empty, so construction-time NumRows
// carries no signal. The serving layer passes the cardinalities its
// plan was made from, so maintainer and plan agree on the tree.
func WithCardinalities(cards map[string]int) Option {
	return func(o *options) { o.cards = cards }
}

// Maintainer is what the three IVM strategies share over the covariance
// payload. General deltas — inserts and deletes with negative
// multiplicities under the covariance ring — are supported by every
// strategy; an update is a delete followed by an insert. Batch ingest
// and the payload reads of the poly2 and cofactor payloads are *FIVM
// methods.
type Maintainer interface {
	// Insert applies one tuple insert and updates the maintained result.
	Insert(t Tuple) error
	// Delete retracts one occurrence of an equal-valued tuple previously
	// inserted, updating the maintained result with the negated
	// contribution. It fails if no matching tuple is live.
	Delete(t Tuple) error
	// Count returns the maintained SUM(1) over the join.
	Count() float64
	// Sum returns the maintained SUM(x_i) for feature i.
	Sum(i int) float64
	// Moment returns the maintained SUM(x_i * x_j).
	Moment(i, j int) float64
	// Snapshot returns a deep copy of the maintained statistics as one
	// covariance-ring triple. The copy shares no state with the
	// maintainer, so callers may hand it to other goroutines while
	// inserts continue — the epoch handoff of the serving layer.
	Snapshot() *ring.Covar
	// ContFeatures returns the continuous feature names in maintained
	// (Sum/Moment index) order.
	ContFeatures() []string
	// Cardinalities returns the live per-relation row counts — the
	// statistics the planning layer feeds on (drift tracking, greedy
	// replanning). The map is freshly allocated on every call.
	Cardinalities() map[string]int
	// Name identifies the strategy in benchmark tables.
	Name() string
}

// node is one relation of the live join tree, with the indexes needed for
// delta propagation and deletes. Both kinds are relation.Index chains,
// headed in an open-addressed key table and linked by row id: an op
// touches a few links and table slots, and allocates nothing once the
// live set has reached its size.
type node struct {
	id       int // position in base.nodes
	tn       *query.TreeNode
	rel      *relation.Relation
	parent   *node
	childPos int // index of this node among parent's children

	parentKeyCols []int
	children      []*node
	childKeyCols  [][]int
	// childIndexes[ci] chains THIS relation's rows by child ci's join
	// key, which a delta climbing from that child fans out over. It is
	// nil until that first fan-out over a non-empty relation builds it
	// (childRows), and maintained incrementally from then on: an edge no
	// delta climbs costs nothing.
	childIndexes []*relation.Index

	// featIdx/featCols: global continuous-feature indexes owned by this
	// node and their columns in rel.
	featIdx  []int
	featCols []int
	// slots are the ring slots the covariance payloads (covar, cofactor)
	// lift featCols into: base.slotOf numbers the continuous features in
	// join-tree preorder, so the slots of a subtree are one contiguous
	// range whatever order the caller listed the features in.
	slots []int

	// catIdx/catCols: global categorical group-slot indexes owned by
	// this node and their columns in rel (cofactor payload only).
	catIdx  []int
	catCols []int

	// locator chains the live rows by a hash of their full value tuple
	// (rowHashAt), so a delete resolves its target in O(1) expected time
	// instead of scanning the relation. Duplicate rows and hash
	// collisions share a chain; locate tells them apart by exact value
	// comparison (rowEquals).
	locator relation.Index
}

// base is the shared state of all maintainers: a live database (initially
// empty copies of the schema relations) arranged into a join tree.
type base struct {
	nodes    []*node // the join tree in preorder; nodes[0] is the root
	byName   map[string]*node
	features []string
	// contFeats/catFeats split features by column type: continuous
	// features in Sum/Moment index order, categorical features in
	// cofactor group-slot order. With any payload other than cofactor,
	// catFeats is empty and contFeats == features.
	contFeats []string
	catFeats  []string
	// slotOf maps a ring slot (node.slots) to the feature index it holds;
	// nil when the two numberings coincide.
	slotOf []int
	// rt schedules the delta scans routed through internal/exec. The
	// zero value is the serial runtime; SetRuntime overrides it.
	rt exec.Runtime
	// groups and groupOf are groupOps' buffers, reused by every batch:
	// the groups of the batch at hand with their index lists, and per
	// node id — one more slot for relations outside the join — the
	// position + 1 of its group among them (0 = none yet).
	groups  []opGroup
	groupOf []int32
}

// ContFeatures implements Maintainer.
func (b *base) ContFeatures() []string { return b.contFeats }

// Cardinalities implements Maintainer: the live per-relation row counts
// of the streamed-into join-tree state.
func (b *base) Cardinalities() map[string]int {
	out := make(map[string]int, len(b.byName))
	//borg:nondeterministic-ok — fills a map with per-key values; no accumulation, order-insensitive
	for name, n := range b.byName {
		out[name] = n.rel.NumRows()
	}
	return out
}

// SetRuntime points the maintainer's scan kernels at the given exec
// runtime. First-order maintenance routes its delta scans through it;
// the view-based strategies compute a tuple's delta with a handful of
// hash probes, too little to split, and ApplyBatch runs its phases as
// plain loops (batch.go), so they never touch the pool.
func (b *base) SetRuntime(rt exec.Runtime) { b.rt = rt }

// joinAttrNames lists every attribute of the join once, in schema
// order, for error messages.
func joinAttrNames(j *query.Join) string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range j.Relations {
		for _, a := range r.Attrs() {
			if !seen[a.Name] {
				seen[a.Name] = true
				names = append(names, a.Name)
			}
		}
	}
	return strings.Join(names, ", ")
}

// newBase clones empty live relations for the given join, plans the
// tree rooted at root through internal/plan, and resolves feature
// ownership. Without WithCardinalities the plan is static (the legacy
// GYO child order — the empty clones carry no signal); with them the
// planner orders children greedily, matching the serving layer's plan.
// The payload decides whether categorical features are legal: the
// cofactor ring owns them as group slots, every other payload rejects
// them.
func newBase(j *query.Join, root string, features []string, o options) (*base, error) {
	payload := o.payload
	live := make([]*relation.Relation, len(j.Relations))
	for i, r := range j.Relations {
		live[i] = r.CloneEmpty()
	}
	lj := query.NewJoin(live...)
	p, err := plan.New(lj, plan.Options{PinnedRoot: root, Cardinalities: o.cards, Static: o.cards == nil})
	if err != nil {
		return nil, err
	}
	jt := p.Tree
	b := &base{byName: make(map[string]*node), features: features}

	owner := make(map[string]*node)
	var build func(tn *query.TreeNode, parent *node) *node
	build = func(tn *query.TreeNode, parent *node) *node {
		n := &node{id: len(b.nodes), tn: tn, rel: tn.Rel, parent: parent,
			childIndexes: make([]*relation.Index, len(tn.Children))}
		b.nodes = append(b.nodes, n)
		for _, a := range tn.JoinAttrs {
			n.parentKeyCols = append(n.parentKeyCols, tn.Rel.AttrIndex(a))
		}
		for _, at := range tn.Rel.Attrs() {
			if _, taken := owner[at.Name]; !taken {
				owner[at.Name] = n
			}
		}
		b.byName[tn.Rel.Name] = n
		for ci, ctn := range tn.Children {
			var cols []int
			for _, a := range ctn.JoinAttrs {
				cols = append(cols, tn.Rel.AttrIndex(a))
			}
			n.childKeyCols = append(n.childKeyCols, cols)
			c := build(ctn, n)
			c.childPos = ci
			n.children = append(n.children, c)
		}
		return n
	}
	build(jt.Root, nil)
	b.groupOf = make([]int32, len(b.nodes)+1)

	for _, f := range features {
		n, ok := owner[f]
		if !ok {
			return nil, fmt.Errorf("ivm: feature %s not in join; available attributes are %s", f, joinAttrNames(j))
		}
		col := n.rel.AttrIndex(f)
		switch {
		case n.rel.Attrs()[col].Type == relation.Double:
			n.featIdx = append(n.featIdx, len(b.contFeats))
			n.featCols = append(n.featCols, col)
			b.contFeats = append(b.contFeats, f)
		case payload == PayloadCofactor:
			n.catIdx = append(n.catIdx, len(b.catFeats))
			n.catCols = append(n.catCols, col)
			b.catFeats = append(b.catFeats, f)
		default:
			return nil, fmt.Errorf("ivm: feature %s is not continuous; categorical features need WithPayload(PayloadCofactor)", f)
		}
	}
	for _, n := range b.nodes { // preorder: a node's features, then its subtrees'
		for _, fi := range n.featIdx {
			n.slots = append(n.slots, len(b.slotOf))
			b.slotOf = append(b.slotOf, fi)
		}
	}
	if slices.IsSorted(b.slotOf) {
		b.slotOf = nil
	}
	return b, nil
}

// append adds the tuple to its live relation, its row locator and the
// child-edge indexes built so far, returning the node and the new row id.
func (b *base) append(t Tuple) (*node, int, error) {
	n, ok := b.byName[t.Rel]
	if !ok {
		return nil, 0, fmt.Errorf("ivm: unknown relation %s", t.Rel)
	}
	if len(t.Values) != n.rel.NumAttrs() {
		return nil, 0, fmt.Errorf("ivm: tuple for %s has %d values, want %d", t.Rel, len(t.Values), n.rel.NumAttrs())
	}
	n.rel.AppendRow(t.Values...)
	row := n.rel.NumRows() - 1
	for ci, ix := range n.childIndexes {
		if ix != nil {
			ix.Insert(n.childKey(ci, row), int32(row))
		}
	}
	n.locator.Insert(rowHashAt(n.rel, row), int32(row))
	return n, row, nil
}

// locate resolves a delete target: the node for t.Rel, the id of one
// live row whose values equal t.Values (any one, under multiset
// semantics). The caller must read everything it needs from the row
// and then removeRow it before the next mutation.
func (b *base) locate(t Tuple) (*node, int, error) {
	n, ok := b.byName[t.Rel]
	if !ok {
		return nil, 0, fmt.Errorf("ivm: unknown relation %s", t.Rel)
	}
	if len(t.Values) != n.rel.NumAttrs() {
		return nil, 0, fmt.Errorf("ivm: tuple for %s has %d values, want %d", t.Rel, len(t.Values), n.rel.NumAttrs())
	}
	for id := n.locator.First(rowHashVals(n.rel, t.Values)); id >= 0; id = n.locator.Next(id) {
		if rowEquals(n.rel, int(id), t.Values) {
			return n, int(id), nil
		}
	}
	return nil, 0, fmt.Errorf("ivm: delete: no live tuple in %s matches the given values", t.Rel)
}

// removeRow deletes the row from its relation, its row locator and the
// child-edge indexes built so far. The relation compacts by swap-delete
// (relation.SwapDeleteRow), so the row formerly last is renumbered to
// the freed slot and each of its index entries is repointed in place,
// keeping ids dense without tombstone liveness checks on the scan
// paths. Every step is O(1) whatever the chain lengths.
func (b *base) removeRow(n *node, row int) {
	last := n.rel.NumRows() - 1
	swapDelete(&n.locator, row, last)
	for _, ix := range n.childIndexes {
		if ix != nil {
			swapDelete(ix, row, last)
		}
	}
	n.rel.SwapDeleteRow(row)
}

// swapDelete drops row from ix and renames last's entry, if another, to
// row. An entry records its key, so no key is recomputed.
func swapDelete(ix *relation.Index, row, last int) {
	ix.Remove(ix.KeyOf(int32(row)), int32(row))
	if row != last {
		ix.Repoint(ix.KeyOf(int32(last)), int32(last), int32(row))
	}
}

// childRows returns n's index on child ci's join key and the first of
// n's rows whose key is k, -1 if none: the parent rows a delta climbing
// from that child fans out over, in chain order (ix.Next). The edge's
// index is built on the first call over a non-empty relation and kept
// from then on; an empty relation has no rows to list and gets no
// index. The build point depends only on the op sequence, so the batch
// and tuple-at-a-time paths build at the same op. It is the one write of
// a delta phase, and a safe one: the phase is serial, and the group it
// computes is the child's, whose mutate phase never touches n's rows.
func (n *node) childRows(ci int, k uint64) (*relation.Index, int32) {
	ix := n.childIndexes[ci]
	if ix == nil {
		if n.rel.NumRows() == 0 {
			return nil, -1
		}
		ix = n.rel.BuildIndex(n.childKeyCols[ci])
		n.childIndexes[ci] = ix
	}
	return ix, ix.First(k)
}

// rowHashVals hashes a full value tuple (FNV-1a over the cells).
func rowHashVals(rel *relation.Relation, vals []relation.Value) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < rel.NumAttrs(); i++ {
		var x uint64
		if rel.Col(i).Type == relation.Double {
			x = relation.NormBits(vals[i].F)
		} else {
			x = uint64(uint32(vals[i].C))
		}
		h = (h ^ x) * 1099511628211
	}
	return h
}

// rowHashAt hashes the stored row `row` consistently with rowHashVals.
func rowHashAt(rel *relation.Relation, row int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < rel.NumAttrs(); i++ {
		var x uint64
		c := rel.Col(i)
		if c.Type == relation.Double {
			x = relation.NormBits(c.F[row])
		} else {
			x = uint64(uint32(c.C[row]))
		}
		h = (h ^ x) * 1099511628211
	}
	return h
}

// rowEquals compares the stored row against a value tuple cell by cell,
// on the same normalized bit patterns the hash uses.
func rowEquals(rel *relation.Relation, row int, vals []relation.Value) bool {
	for i := 0; i < rel.NumAttrs(); i++ {
		c := rel.Col(i)
		if c.Type == relation.Double {
			if relation.NormBits(c.F[row]) != relation.NormBits(vals[i].F) {
				return false
			}
		} else if c.C[row] != vals[i].C {
			return false
		}
	}
	return true
}

// Relation returns the live (streamed-into) relation with the given
// name, or nil. Callers use it to resolve schemas and dictionaries when
// constructing stream tuples.
func (b *base) Relation(name string) *relation.Relation {
	n, ok := b.byName[name]
	if !ok {
		return nil
	}
	return n.rel
}

// parentKey returns the packed key of row `row` towards n's parent.
func (n *node) parentKey(row int) uint64 { return n.rel.Key(n.parentKeyCols, row) }

// childKey returns the packed key of row `row` towards child ci.
func (n *node) childKey(ci, row int) uint64 { return n.rel.Key(n.childKeyCols[ci], row) }
