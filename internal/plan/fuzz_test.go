package plan

import (
	"fmt"
	"strings"
	"testing"

	"borg/internal/query"
	"borg/internal/relation"
)

// shape renders a tree as nested relation names with join attributes,
// children in order, then the BottomUp schedule.
func shape(jt *query.JoinTree) string {
	var b strings.Builder
	var walk func(n *query.TreeNode)
	walk = func(n *query.TreeNode) {
		fmt.Fprintf(&b, "%s%v(", n.Rel.Name, n.JoinAttrs)
		for _, c := range n.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	walk(jt.Root)
	for _, n := range jt.BottomUp {
		b.WriteString(" " + n.Rel.Name)
	}
	return b.String()
}

// FuzzPlanNew plans random acyclic joins: relation i > 0 hangs off
// relation data[i] mod i through a key of its own, and optionally every
// relation also holds one shared attribute. Every relation appears once
// in the tree, a pinned root is the root, planning twice gives the same
// plan, and a static pinned plan is query.BuildJoinTree's tree.
func FuzzPlanNew(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 9, 4, 7}, uint8(1), false)
	f.Add([]byte{6, 0, 1, 1, 2, 3, 200, 0, 5, 5, 5, 5}, uint8(4), true)
	f.Fuzz(func(t *testing.T, data []byte, pin uint8, shared bool) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		byte_ := func(i int) int { return int(data[i%len(data)]) }
		db := relation.NewDatabase()
		cards := make(map[string]int)
		var rels []*relation.Relation
		for i := 0; i < n; i++ {
			attrs := []relation.Attribute{{Name: fmt.Sprintf("x%d", i), Type: relation.Double}}
			if i > 0 {
				attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("k%d", i), Type: relation.Category})
			}
			for c := 1; c < n; c++ {
				if c > i && byte_(c)%c == i { // child c hangs off i
					attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("k%d", c), Type: relation.Category})
				}
			}
			if shared {
				attrs = append(attrs, relation.Attribute{Name: "g", Type: relation.Category})
			}
			name := fmt.Sprintf("R%d", byte_(n+i)%16*10+i)
			rels = append(rels, db.NewRelation(name, attrs))
			cards[name] = byte_(2*n+i) % 5
		}
		j := query.NewJoin(rels...)
		root := rels[int(pin)%n].Name
		for _, opt := range []Options{{Cardinalities: cards}, {PinnedRoot: root, Cardinalities: cards}, {PinnedRoot: root, Static: true, Cardinalities: cards}} {
			p, err := New(j, opt)
			if err != nil {
				t.Fatalf("%+v: %v", opt, err)
			}
			again, err := New(j, opt)
			if err != nil || shape(again.Tree) != shape(p.Tree) || again.Root != p.Root {
				t.Fatalf("%+v: planned %s, then %v", opt, shape(p.Tree), err)
			}
			if opt.PinnedRoot != "" && p.Root != root || p.Tree.Root.Rel.Name != p.Root {
				t.Fatalf("%+v: root %s, tree rooted at %s", opt, p.Root, p.Tree.Root.Rel.Name)
			}
			seen := make(map[string]int)
			for _, node := range p.Tree.BottomUp {
				seen[node.Rel.Name]++
			}
			if len(seen) != n || len(p.Tree.BottomUp) != n {
				t.Fatalf("%+v: %d relations, the tree holds %v", opt, n, seen)
			}
			if opt.Static {
				legacy, err := j.BuildJoinTree(root)
				if err != nil || shape(legacy) != shape(p.Tree) {
					t.Fatalf("static plan %s, BuildJoinTree %v %v", shape(p.Tree), shape(legacy), err)
				}
			}
		}
	})
}
