package ivm

import (
	"testing"

	"borg/internal/query"
	"borg/internal/ring"
	"borg/internal/xrand"
)

// liftedFIVM builds the one maintainer of the lifted payload.
func liftedFIVM(t *testing.T, j *query.Join, root string, features []string) *FIVM {
	t.Helper()
	f, err := NewFIVM(j, root, features, WithPayload(PayloadPoly2))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// published publishes m's current state as one epoch.
func published(m *FIVM) *Published {
	p := new(Published)
	m.PublishInto(p)
	return p
}

// bruteLifted joins the surviving intStar tuples by hand — no engine, no
// ring — and accumulates every degree-≤4 moment in the ring's monomial
// order. Feature order matches intStarFeatures: fx, fy, d0x, d1x.
func bruteLifted(r *ring.Poly2Ring, live []Tuple) []float64 {
	dim0 := make(map[int32][]float64)
	dim1 := make(map[int32][]float64)
	for _, tu := range live {
		switch tu.Rel {
		case "Dim0":
			dim0[tu.Values[0].C] = append(dim0[tu.Values[0].C], tu.Values[1].F)
		case "Dim1":
			dim1[tu.Values[0].C] = append(dim1[tu.Values[0].C], tu.Values[1].F)
		}
	}
	out := make([]float64, r.Len())
	for _, tu := range live {
		if tu.Rel != "Fact" {
			continue
		}
		for _, d0 := range dim0[tu.Values[0].C] {
			for _, d1 := range dim1[tu.Values[1].C] {
				row := []float64{tu.Values[2].F, tu.Values[3].F, d0, d1}
				for i := 0; i < r.Len(); i++ {
					vars, pows := r.Monomial(i)
					v := 1.0
					for k, f := range vars {
						for p := uint8(0); p < pows[k]; p++ {
							v *= row[f]
						}
					}
					out[i] += v
				}
			}
		}
	}
	return out
}

// TestLiftedMatchesBruteForce is the lifted ring's maintenance
// certificate: a random interleaving of inserts, deletes, and updates
// must leave every maintained degree-≤4 moment of F-IVM bitwise-equal
// to a hand-joined recomputation over only the surviving rows, at
// several churn checkpoints. Integer data makes every accumulation
// exact, so the comparison is bitwise, not approximate.
func TestLiftedMatchesBruteForce(t *testing.T) {
	_, j := intStar()
	m := liftedFIVM(t, j, "Fact", intStarFeatures)
	pr := ring.NewPoly2Ring(len(intStarFeatures))
	src := xrand.New(99)

	var live []Tuple
	apply := func(op func(m Maintainer) error) {
		t.Helper()
		if err := op(m); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
	const steps = 300
	for step := 0; step < steps; step++ {
		switch r := src.Intn(10); {
		case r < 6 || len(live) == 0: // 60% inserts
			tu := randomTuple(src)
			apply(func(m Maintainer) error { return m.Insert(tu) })
			live = append(live, tu)
		case r < 8: // 20% deletes
			i := src.Intn(len(live))
			tu := live[i]
			apply(func(m Maintainer) error { return m.Delete(tu) })
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // 20% updates
			i := src.Intn(len(live))
			old := live[i]
			nu := randomTuple(src)
			apply(func(m Maintainer) error {
				if err := m.Delete(old); err != nil {
					return err
				}
				return m.Insert(nu)
			})
			live[i] = nu
		}
		if step%100 != 99 && step != steps-1 {
			continue
		}
		want := bruteLifted(pr, live)
		got := published(m).Lifted
		if got == nil {
			t.Fatalf("%s: lifted maintainer published a nil Lifted", m.Name())
		}
		for i := range want {
			if got.M[i] != want[i] {
				vars, pows := pr.Monomial(i)
				t.Fatalf("%s @ step %d: moment %v^%v = %v, want exactly %v",
					m.Name(), step, vars, pows, got.M[i], want[i])
			}
		}
		// The covariance triple is the degree-≤2 extraction; Snapshot
		// and the scalar accessors must agree with it.
		c := m.Snapshot()
		if c.Count != got.Count() || c.Count != m.Count() {
			t.Fatalf("%s: covar count %v vs lifted %v vs accessor %v", m.Name(), c.Count, got.Count(), m.Count())
		}
		for i := range intStarFeatures {
			if c.Sum[i] != m.Sum(i) {
				t.Fatalf("%s: Sum(%d) mismatch", m.Name(), i)
			}
			for k := range intStarFeatures {
				if c.Q[i*len(intStarFeatures)+k] != m.Moment(i, k) {
					t.Fatalf("%s: Moment(%d,%d) mismatch", m.Name(), i, k)
				}
			}
		}
	}
	if len(live) == 0 {
		t.Fatal("degenerate run: churn deleted everything")
	}
}

// TestLiftedCovarMatchesPlain checks the subsumption claim directly: a
// lifted F-IVM maintainer and a plain covariance maintainer of every
// strategy, fed the same stream, expose bitwise-identical covariance
// statistics.
func TestLiftedCovarMatchesPlain(t *testing.T) {
	_, j := intStar()
	plain := maintainers(t, j, "Fact", intStarFeatures)
	lifted := liftedFIVM(t, j, "Fact", intStarFeatures)
	src := xrand.New(41)
	var live []Tuple
	for step := 0; step < 200; step++ {
		if src.Intn(10) < 7 || len(live) == 0 {
			tu := randomTuple(src)
			live = append(live, tu)
			for _, m := range append(plain, lifted) {
				if err := m.Insert(tu); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			i := src.Intn(len(live))
			tu := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			for _, m := range append(plain, lifted) {
				if err := m.Delete(tu); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	lc := lifted.Snapshot()
	for _, m := range plain {
		if pc := m.Snapshot(); !pc.ApproxEqual(lc, 0) {
			t.Fatalf("%s: lifted covar %v differs from plain %v", m.Name(), lc, pc)
		}
	}
	if published(plain[0].(*FIVM)).Lifted != nil {
		t.Fatal("plain F-IVM maintainer reports a lifted snapshot")
	}
}

// TestLiftedViewsPrunedUnderChurn mirrors TestViewsPrunedUnderChurn for
// the lifted payloads: draining the database must drain the view maps.
func TestLiftedViewsPrunedUnderChurn(t *testing.T) {
	_, j := intStar()
	src := xrand.New(13)
	var stream []Tuple
	for i := 0; i < 150; i++ {
		stream = append(stream, randomTuple(src))
	}
	f, err := NewFIVM(j, "Fact", intStarFeatures, WithPayload(PayloadPoly2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range stream {
		if err := f.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range src.Perm(len(stream)) {
		if err := f.Delete(stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	for n, v := range f.p2.views {
		if len(v) != 0 {
			t.Fatalf("lifted F-IVM: %d zero view entries survive at %s after delete-to-empty", len(v), n.rel.Name)
		}
	}
	if !f.p2.result.IsZero() {
		t.Fatalf("drained lifted root not zero: %v", f.p2.result.M)
	}
}
