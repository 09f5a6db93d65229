// Package query models feature-extraction queries — natural joins of the
// relations holding the features — together with the combinatorial
// structure the paper's Section 3.2 exploits: the join hypergraph, the
// GYO acyclicity test, rooted join trees, and variable orders (d-trees)
// for factorized evaluation.
//
// It also defines the aggregate language of Section 2: SUM-product
// aggregates with group-by over categorical attributes and filters, which
// is exactly the class needed by covariance matrices, decision-tree costs,
// mutual information, and k-means. Both the classical engine
// (internal/engine) and LMFAO (internal/core) evaluate []AggSpec values,
// which is what makes their results directly comparable in tests and
// benchmarks.
package query

import (
	"fmt"
	"sort"

	"borg/internal/relation"
)

// Join is a natural join of relations: attributes with equal names are
// equated. This matches the key–fkey feature-extraction queries of the
// evaluated datasets.
type Join struct {
	Relations []*relation.Relation
}

// NewJoin returns a Join over the given relations.
func NewJoin(rels ...*relation.Relation) *Join {
	return &Join{Relations: rels}
}

// Attrs returns the deduplicated attribute names of the join result, in
// first-occurrence order.
func (j *Join) Attrs() []string {
	var out []string
	seen := make(map[string]bool)
	for _, r := range j.Relations {
		for _, a := range r.Attrs() {
			if !seen[a.Name] {
				seen[a.Name] = true
				out = append(out, a.Name)
			}
		}
	}
	return out
}

// AttrType returns the type of the named attribute in the join, looked up
// in the first relation declaring it.
func (j *Join) AttrType(name string) (relation.Type, bool) {
	for _, r := range j.Relations {
		if i := r.AttrIndex(name); i >= 0 {
			return r.Attrs()[i].Type, true
		}
	}
	return 0, false
}

// RelationsWith returns the indexes of relations containing the attribute.
func (j *Join) RelationsWith(name string) []int {
	var out []int
	for i, r := range j.Relations {
		if r.HasAttr(name) {
			out = append(out, i)
		}
	}
	return out
}

// IsAcyclic reports whether the join hypergraph is alpha-acyclic, using
// the GYO ear-removal algorithm. Acyclic queries are the ones for which
// factorized evaluation runs in time linear in the input (Section 2.1);
// cyclic queries would first be partially evaluated to an acyclic one
// (footnote 4 of the paper), which this reproduction does not need for
// its star/snowflake workloads.
func (j *Join) IsAcyclic() bool {
	_, err := j.BuildJoinTree("")
	return err == nil
}

// TreeNode is one relation in a rooted join tree.
type TreeNode struct {
	Rel      *relation.Relation
	Parent   *TreeNode
	Children []*TreeNode
	// JoinAttrs are the attributes shared with the parent (the edge
	// label); nil at the root. By the running-intersection property of
	// GYO trees they separate the subtree from the rest of the query.
	JoinAttrs []string
}

// JoinTree is a rooted join tree of an acyclic join.
type JoinTree struct {
	Join *Join
	Root *TreeNode
	// BottomUp lists the nodes children-first; evaluating views in this
	// order guarantees every child view exists when its parent needs it.
	BottomUp []*TreeNode
}

// BuildJoinTree runs GYO ear removal and roots the resulting tree at the
// named relation (or, when rootName is empty, at the relation with the
// most rows — the fact table, which is the standard LMFAO choice since it
// keeps the big relation's scan at the top and all views small).
// It returns an error if the join is cyclic.
func (j *Join) BuildJoinTree(rootName string) (*JoinTree, error) {
	n := len(j.Relations)
	if n == 0 {
		return nil, fmt.Errorf("query: empty join")
	}
	// attrSets[i] is the live attribute set of relation i during GYO.
	attrSets := make([]map[string]bool, n)
	for i, r := range j.Relations {
		attrSets[i] = make(map[string]bool)
		for _, a := range r.Attrs() {
			attrSets[i][a.Name] = true
		}
	}
	// occurrences of each attribute among live edges.
	occ := make(map[string]int)
	for _, s := range attrSets {
		for a := range s {
			occ[a]++
		}
	}
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	removed := 0
	for removed < n-1 {
		progress := false
		for e := 0; e < n && removed < n-1; e++ {
			if !live[e] {
				continue
			}
			// Shared attrs of e: those occurring in some other live edge.
			var shared []string
			for a := range attrSets[e] {
				if occ[a] > 1 {
					shared = append(shared, a)
				}
			}
			// Find a witness containing all shared attrs of e.
			for w := 0; w < n; w++ {
				if w == e || !live[w] {
					continue
				}
				ok := true
				for _, a := range shared {
					if !attrSets[w][a] {
						ok = false
						break
					}
				}
				if ok {
					parent[e] = w
					live[e] = false
					for a := range attrSets[e] {
						occ[a]--
					}
					removed++
					progress = true
					break
				}
			}
		}
		if !progress {
			return nil, fmt.Errorf("query: join over %d relations is cyclic (GYO stuck with %d edges)", n, n-removed)
		}
	}

	// Build adjacency from the GYO parents, then re-root.
	adj := make([][]int, n)
	for e, p := range parent {
		if p >= 0 {
			adj[e] = append(adj[e], p)
			adj[p] = append(adj[p], e)
		}
	}
	rootIdx := -1
	if rootName != "" {
		for i, r := range j.Relations {
			if r.Name == rootName {
				rootIdx = i
				break
			}
		}
		if rootIdx < 0 {
			return nil, fmt.Errorf("query: root relation %q not in join", rootName)
		}
	} else {
		// Largest relation wins; equal cardinalities break
		// lexicographically by name so the chosen root is deterministic
		// across runs rather than declaration-order dependent.
		for i, r := range j.Relations {
			if rootIdx < 0 || r.NumRows() > j.Relations[rootIdx].NumRows() ||
				(r.NumRows() == j.Relations[rootIdx].NumRows() && r.Name < j.Relations[rootIdx].Name) {
				rootIdx = i
			}
		}
	}

	nodes := make([]*TreeNode, n)
	for i, r := range j.Relations {
		nodes[i] = &TreeNode{Rel: r}
	}
	visited := make([]bool, n)
	var bottomUp []*TreeNode
	var dfs func(i int)
	dfs = func(i int) {
		visited[i] = true
		for _, k := range adj[i] {
			if visited[k] {
				continue
			}
			child := nodes[k]
			child.Parent = nodes[i]
			child.JoinAttrs = sharedAttrs(j.Relations[k], j.Relations[i])
			if len(child.JoinAttrs) == 0 {
				// A cross-product edge: legal but suspicious in a
				// feature-extraction query; keep it with an empty label.
				child.JoinAttrs = nil
			}
			nodes[i].Children = append(nodes[i].Children, child)
			dfs(k)
		}
		bottomUp = append(bottomUp, nodes[i])
	}
	dfs(rootIdx)
	for i, v := range visited {
		if !v {
			return nil, fmt.Errorf("query: join graph is disconnected at relation %s", j.Relations[i].Name)
		}
	}
	return &JoinTree{Join: j, Root: nodes[rootIdx], BottomUp: bottomUp}, nil
}

func sharedAttrs(a, b *relation.Relation) []string {
	var out []string
	for _, at := range a.Attrs() {
		if b.HasAttr(at.Name) {
			out = append(out, at.Name)
		}
	}
	sort.Strings(out)
	if len(out) > 2 {
		panic(fmt.Sprintf("query: join between %s and %s on %d attributes; at most 2 supported", a.Name, b.Name, len(out)))
	}
	return out
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *TreeNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}
