package ivm

import (
	"strings"
	"testing"

	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/testdb"
)

func TestUnknownRelationRejected(t *testing.T) {
	_, j, cont, _ := testdb.RandomStar(testdb.StarSpec{Seed: 36, FactRows: 1, DimRows: []int{1}})
	m, err := NewFIVM(j, "Fact", cont)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(Tuple{Rel: "Ghost"}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := m.Insert(Tuple{Rel: "Fact", Values: []relation.Value{{}}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestBadFeatureRejected(t *testing.T) {
	_, j, cont, cat := testdb.RandomStar(testdb.StarSpec{Seed: 37, FactRows: 1, DimRows: []int{1}})
	if _, err := NewFIVM(j, "Fact", []string{"ghost"}); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if _, err := NewFIVM(j, "Fact", []string{cat[0]}); err == nil {
		t.Fatal("categorical feature accepted")
	}
	// The scalar strategies maintain the covar payload only, and say
	// which payload they refused.
	for _, p := range []Payload{PayloadPoly2, PayloadCofactor} {
		if _, err := NewHigherOrder(j, "Fact", cont, WithPayload(p)); err == nil || !strings.Contains(err.Error(), p.String()) {
			t.Fatalf("higher-order with payload %s: err %v", p, err)
		}
		if _, err := NewFirstOrder(j, "Fact", cont, WithPayload(p)); err == nil || !strings.Contains(err.Error(), p.String()) {
			t.Fatalf("first-order with payload %s: err %v", p, err)
		}
	}
}

func TestAggIndexLayout(t *testing.T) {
	ix := newAggIndex(3)
	seen := map[int]bool{ix.count(): true}
	for i := 0; i < 3; i++ {
		p := ix.sum(i)
		if seen[p] {
			t.Fatalf("sum(%d) collides at %d", i, p)
		}
		seen[p] = true
	}
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			p := ix.moment(i, j)
			if seen[p] {
				t.Fatalf("moment(%d,%d) collides at %d", i, j, p)
			}
			seen[p] = true
			if ix.moment(j, i) != p {
				t.Fatal("moment not symmetric")
			}
		}
	}
	if len(seen) != len(covarAggs(3)) {
		t.Fatalf("layout covers %d positions, aggs = %d", len(seen), len(covarAggs(3)))
	}
}

func BenchmarkInsertThroughput(b *testing.B) {
	r, ops := historyOps(testdb.Config{Seed: 40, Steps: 5000, Dims: 2})
	j, cont := r.j, r.h.Cont()
	var stream []Tuple
	for _, o := range ops {
		if o.Kind == OpInsert && o.Tuple.Rel != "NoSuchRel" {
			stream = append(stream, o.Tuple)
		}
	}
	mk := []func() Maintainer{
		func() Maintainer { m, _ := NewFIVM(j, "Fact", cont); return m },
		func() Maintainer { m, _ := NewHigherOrder(j, "Fact", cont); return m },
		func() Maintainer { m, _ := NewFirstOrder(j, "Fact", cont); return m },
	}
	for _, make := range mk {
		m := make()
		b.Run(m.Name(), func(b *testing.B) {
			m := make()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Insert(stream[i%len(stream)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func maintainers(t *testing.T, j *query.Join, root string, features []string) []Maintainer {
	t.Helper()
	f, err := NewFIVM(j, root, features)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHigherOrder(j, root, features)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := NewFirstOrder(j, root, features)
	if err != nil {
		t.Fatal(err)
	}
	return []Maintainer{f, h, fo}
}

// TestDeleteErrors: deletes of unknown relations, wrong arity, and
// values that match no live row fail loudly and leave state untouched.
func TestDeleteErrors(t *testing.T) {
	h := testdb.Generate(testdb.Config{Seed: 1, Dims: 1})
	db, j := h.Database()
	for _, m := range maintainers(t, j, "Fact", h.Cont()) {
		if err := m.Delete(Tuple{Rel: "Ghost"}); err == nil {
			t.Fatalf("%s: unknown relation accepted", m.Name())
		}
		if err := m.Delete(Tuple{Rel: "Fact", Values: []relation.Value{{}}}); err == nil {
			t.Fatalf("%s: arity mismatch accepted", m.Name())
		}
		tu := Tuple{Rel: "Dim0", Values: testdb.Values(db, "Dim0", []any{"p0", "k0", 4.0, "d0g0"})}
		if err := m.Delete(tu); err == nil {
			t.Fatalf("%s: delete from empty relation accepted", m.Name())
		}
		if err := m.Insert(tu); err != nil {
			t.Fatal(err)
		}
		near := Tuple{Rel: "Dim0", Values: testdb.Values(db, "Dim0", []any{"p0", "k0", 5.0, "d0g0"})}
		if err := m.Delete(near); err == nil {
			t.Fatalf("%s: delete of non-matching values accepted", m.Name())
		}
		// Multiset semantics: two equal rows need two deletes.
		if err := m.Insert(tu); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(tu); err != nil {
			t.Fatalf("%s: first delete: %v", m.Name(), err)
		}
		if err := m.Delete(tu); err != nil {
			t.Fatalf("%s: second delete: %v", m.Name(), err)
		}
		if err := m.Delete(tu); err == nil {
			t.Fatalf("%s: third delete of a doubly-inserted tuple accepted", m.Name())
		}
	}
}
