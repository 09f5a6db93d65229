// Package plan is the first-class planning layer: it turns a
// feature-extraction join plus relation cardinalities into a rooted join
// tree and variable order, chosen greedily from the statistics the IVM
// maintainers already track.
//
// The planning rule is the statistics-free greedy ordering that
// janus-datalog demonstrated winning in production ("When Greedy Beats
// Optimal"): no histograms, no cost model — just live cardinalities.
// The root is the largest relation (its inserts then touch no ancestor
// views, so the heaviest stream is the cheapest to maintain), and each
// node's children attach smallest-first, expanding the join graph from
// the cheapest subtrees outward. Ties — including the all-empty case at
// server start — fall back to the existing static order (lexicographic
// root, declaration-order children), so a plan is deterministic given
// the same cardinalities and planning an empty join reproduces the
// legacy tree exactly.
//
// Planning cost is microseconds: one GYO ear removal, one stable sort
// per node, and one variable-order derivation. That is what makes LIVE
// replanning viable — the serving layer replans at flush boundaries
// when churn skews relative sizes (see serve.Server.Replan), paying the
// rebuild only when the drift warrants it.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"borg/internal/query"
)

// Plan is one resolved execution plan for a feature-extraction join: the
// rooted join tree, the variable order derived from it, its width, and
// the cardinalities it was planned from (the drift baseline).
type Plan struct {
	// Root is the chosen join-tree root relation.
	Root string
	// Tree is the rooted join tree, with children in planned attachment
	// order.
	Tree *query.JoinTree
	// VarOrder is the variable order (d-tree) derived from Tree.
	VarOrder *query.VarOrder
	// Width is the factorization width of VarOrder (1 for acyclic joins
	// — the linear-size certificate).
	Width int
	// Depth is the longest root-to-leaf variable chain of VarOrder.
	Depth int
	// Cardinalities are the per-relation row counts the plan was chosen
	// from, keyed by relation name.
	Cardinalities map[string]int
	// Greedy reports whether the root was picked greedily (false when
	// Options.PinnedRoot forced it).
	Greedy bool
}

// Options configures planning. The zero value plans fully greedily from
// the join's live cardinalities.
type Options struct {
	// PinnedRoot, when non-empty, pins the join-tree root instead of
	// picking it greedily. Planning fails if it names no relation of the
	// join.
	PinnedRoot string
	// Cardinalities supplies the per-relation row counts planning feeds
	// on; nil reads the live NumRows of the join's relations. Replanning
	// passes the maintainer's live counts here, so the plan reflects the
	// streamed state rather than the (possibly empty) source database.
	Cardinalities map[string]int
	// Static disables greedy child reordering: children keep the GYO
	// adjacency order BuildJoinTree has always produced. Combined with
	// PinnedRoot this reproduces the legacy static plan bit for bit —
	// the fallback the facade uses when a query pins its root.
	Static bool
}

// New plans the join. It is deterministic given the same join and
// cardinalities, and costs microseconds (one GYO pass, one stable sort
// per node, one variable-order derivation).
func New(j *query.Join, opt Options) (*Plan, error) {
	if len(j.Relations) == 0 {
		return nil, fmt.Errorf("plan: empty join")
	}
	cards := opt.Cardinalities
	if cards == nil {
		cards = Live(j)
	}
	root := opt.PinnedRoot
	greedy := root == ""
	if greedy {
		root = greedyRoot(j, cards)
	} else if !hasRelation(j, root) {
		return nil, fmt.Errorf("plan: root %s is not a relation of the join; the join's relations are %s",
			root, strings.Join(relationNames(j), ", "))
	}
	jt, err := j.BuildJoinTree(root)
	if err != nil {
		return nil, err
	}
	if !opt.Static {
		reorderChildren(jt, cards)
	}
	vo := query.BuildVarOrder(jt)
	return &Plan{
		Root:          root,
		Tree:          jt,
		VarOrder:      vo,
		Width:         vo.FactorizationWidth(),
		Depth:         varDepth(vo),
		Cardinalities: cards,
		Greedy:        greedy,
	}, nil
}

// Live reads the current per-relation cardinalities of the join — the
// zero-statistics planning input.
func Live(j *query.Join) map[string]int {
	out := make(map[string]int, len(j.Relations))
	for _, r := range j.Relations {
		out[r.Name] = r.NumRows()
	}
	return out
}

// greedyRoot picks the largest relation by the given cardinalities —
// rooting the tree at the heaviest relation makes its inserts ancestor-
// free, hence O(1) per tuple — breaking ties lexicographically by name
// so equal-size relations plan identically across runs.
func greedyRoot(j *query.Join, cards map[string]int) string {
	best := j.Relations[0].Name
	for _, r := range j.Relations[1:] {
		if cards[r.Name] > cards[best] || (cards[r.Name] == cards[best] && r.Name < best) {
			best = r.Name
		}
	}
	return best
}

// reorderChildren stable-sorts every node's children ascending by
// subtree cardinality (name-lexicographic on equal sizes) — the
// smallest-first expansion over the join graph — and rebuilds the
// children-first BottomUp schedule to match. The sort is stable, so the
// all-ties case (an empty live database) preserves the static order.
func reorderChildren(jt *query.JoinTree, cards map[string]int) {
	var walk func(n *query.TreeNode)
	walk = func(n *query.TreeNode) {
		sort.SliceStable(n.Children, func(a, b int) bool {
			ca, cb := subtreeCard(n.Children[a], cards), subtreeCard(n.Children[b], cards)
			if ca != cb {
				return ca < cb
			}
			return n.Children[a].Rel.Name < n.Children[b].Rel.Name
		})
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(jt.Root)
	jt.BottomUp = jt.BottomUp[:0]
	var schedule func(n *query.TreeNode)
	schedule = func(n *query.TreeNode) {
		for _, c := range n.Children {
			schedule(c)
		}
		jt.BottomUp = append(jt.BottomUp, n)
	}
	schedule(jt.Root)
}

// subtreeCard sums the cardinalities of the subtree rooted at n.
func subtreeCard(n *query.TreeNode, cards map[string]int) int {
	total := cards[n.Rel.Name]
	for _, c := range n.Children {
		total += subtreeCard(c, cards)
	}
	return total
}

// varDepth returns the longest root-to-leaf chain of the variable order
// — the nesting depth of the factorized representation.
func varDepth(vo *query.VarOrder) int {
	var depth func(n *query.VarNode) int
	depth = func(n *query.VarNode) int {
		best := 0
		for _, c := range n.Children {
			if d := depth(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	max := 0
	for _, r := range vo.Roots {
		if d := depth(r); d > max {
			max = d
		}
	}
	return max
}

func hasRelation(j *query.Join, name string) bool {
	for _, r := range j.Relations {
		if r.Name == name {
			return true
		}
	}
	return false
}

func relationNames(j *query.Join) []string {
	out := make([]string, len(j.Relations))
	for i, r := range j.Relations {
		out[i] = r.Name
	}
	return out
}
