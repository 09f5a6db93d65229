package ivm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"borg/internal/exec"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/testdb"
	"borg/internal/xrand"
)

// fivmOver returns a constructor of F-IVM over a star join with a given
// payload — the continuous features, plus the categorical ones under
// PayloadCofactor — and the continuous feature count stateOf needs.
func fivmOver(spec testdb.StarSpec) (func(Payload) *FIVM, int) {
	_, j, cont, cats := testdb.RandomStar(spec)
	return func(p Payload) *FIVM {
		feats := cont
		if p == PayloadCofactor {
			feats = append(slices.Clip(cont), cats...)
		}
		m, err := NewFIVM(j, "Fact", feats, WithPayload(p))
		if err != nil {
			panic(err)
		}
		return m
	}, len(cont)
}

// batchesOf builds a deterministic batched op schedule over a stream:
// every batch inserts the next stream chunk, retracts and updates
// tuples that went live in EARLIER batches (so no op depends on another
// op of the same batch across relations — within a relation, grouping
// preserves order), and ends with ops that must fail (unknown relation,
// arity mismatch). One cross-relation update per batch exercises the
// serial-singleton fallback.
func batchesOf(stream []Tuple, seed uint64) [][]Op {
	src := xrand.New(seed)
	relVals := make(map[string][][]relation.Value)
	for _, t := range stream {
		relVals[t.Rel] = append(relVals[t.Rel], t.Values)
	}
	const chunk = 40
	var batches [][]Op
	var live []Tuple
	take := func() Tuple {
		j := src.Intn(len(live))
		t := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		return t
	}
	for start := 0; start < len(stream); start += chunk {
		end := min(start+chunk, len(stream))
		var ops []Op
		for _, t := range stream[start:end] {
			ops = append(ops, Op{Kind: OpInsert, Tuple: t})
		}
		for i := len(live) / 8; i > 0 && len(live) > 0; i-- {
			ops = append(ops, Op{Kind: OpDelete, Tuple: take()})
		}
		for i := len(live) / 10; i > 0 && len(live) > 0; i-- {
			old := take()
			cands := relVals[old.Rel]
			nt := Tuple{Rel: old.Rel, Values: cands[src.Intn(len(cands))]}
			ops = append(ops, Op{Kind: OpUpdate, Old: old, Tuple: nt})
			live = append(live, nt)
		}
		if len(live) > 0 {
			// Cross-relation update: retracts old, inserts into another
			// relation — the grouped path cannot prove it independent, so
			// it must flow through the serial-singleton fallback.
			old := take()
			for rel, cands := range relVals {
				if rel != old.Rel {
					ops = append(ops, Op{Kind: OpUpdate, Old: old,
						Tuple: Tuple{Rel: rel, Values: cands[src.Intn(len(cands))]}})
					live = append(live, ops[len(ops)-1].Tuple)
					break
				}
			}
		}
		ops = append(ops,
			Op{Kind: OpInsert, Tuple: Tuple{Rel: "NoSuchRel", Values: stream[0].Values}},
			Op{Kind: OpDelete, Tuple: Tuple{Rel: "NoSuchRel", Values: stream[0].Values}},
			Op{Kind: OpInsert, Tuple: Tuple{Rel: stream[0].Rel, Values: stream[0].Values[:1]}},
		)
		for _, t := range stream[start:end] {
			live = append(live, t)
		}
		batches = append(batches, ops)
	}
	return batches
}

// applySerialGrouped is the reference semantics ApplyBatch is certified
// against: the batch's grouped order applied tuple-at-a-time through
// the strategy's own Insert/Delete methods, with ApplyBatch's
// accounting.
func applySerialGrouped(m Maintainer, ops []Op) BatchResult {
	var res BatchResult
	for _, g := range groupOps(ops) {
		for _, i := range g.idx {
			ins, del, failed, err := serialApply(m, &ops[i])
			res.Inserts += ins
			res.Deletes += del
			if failed {
				res.FullyFailed++
			}
			if err != nil && res.Err == nil {
				res.Err = err
			}
		}
	}
	return res
}

// liftedStateOf reads the lifted payload as raw float bits (nil when
// the maintainer does not carry the lifted ring).
func liftedStateOf(m *FIVM) []uint64 {
	p := published(m).Lifted
	if p == nil {
		return nil
	}
	out := make([]uint64, len(p.M))
	for i, v := range p.M {
		out[i] = math.Float64bits(v)
	}
	return out
}

// cofactorStateOf reads the cofactor payload as group codes and raw
// float bits (nil when the maintainer does not carry the cofactor ring).
func cofactorStateOf(m *FIVM) []uint64 {
	e := m.SnapshotCofactor()
	if e == nil {
		return nil
	}
	return cofactorBits(e)
}

// TestApplyBatchBitwiseEqualSerial is the equivalence certificate of
// the batch path: for every payload, ApplyBatch at Workers 1, 2, and 8
// must leave a maintained state — the covariance statistics and the
// lifted or cofactor element — BITWISE equal to serially applying the
// grouped order through the tuple-at-a-time Insert/Delete path, after
// every batch of a mixed insert/delete/update schedule that includes
// failing ops and cross-relation updates. Run under -race and
// -cpu 1,2,8 this also certifies the batch path as data-race-free.
func TestApplyBatchBitwiseEqualSerial(t *testing.T) {
	spec := testdb.StarSpec{Seed: 71, FactRows: 220, DimRows: []int{11, 6}}
	db, _, _, _ := testdb.RandomStar(spec)
	stream := streamOf(db, 29)
	batches := batchesOf(stream, 43)
	mk, nfeat := fivmOver(spec)
	for _, row := range []struct {
		name    string
		payload Payload
	}{{"lifted=false", PayloadCovar}, {"lifted=true", PayloadPoly2}, {"cofactor", PayloadCofactor}} {
		payload := row.payload
		// Reference: the grouped order, tuple at a time, serial.
		ref := mk(payload)
		refStates := make([][]uint64, len(batches))
		refPayload := make([][]uint64, len(batches))
		refResults := make([]BatchResult, len(batches))
		for bi, ops := range batches {
			refResults[bi] = applySerialGrouped(ref, ops)
			refStates[bi] = stateOf(ref, nfeat)
			refPayload[bi] = append(liftedStateOf(ref), cofactorStateOf(ref)...)
		}
		if payload != PayloadCovar && len(refPayload[len(batches)-1]) == 0 {
			t.Fatalf("%s: the reference ends with an empty payload element", payload)
		}
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("F-IVM/%s/workers=%d", row.name, w), func(t *testing.T) {
				m := mk(payload)
				m.SetRuntime(exec.Runtime{Workers: w, MorselSize: 32})
				for bi, ops := range batches {
					res := m.ApplyBatch(ops)
					want := refResults[bi]
					if res.Inserts != want.Inserts || res.Deletes != want.Deletes || res.FullyFailed != want.FullyFailed {
						t.Fatalf("batch %d: result %+v, want %+v", bi, res, want)
					}
					if (res.Err == nil) != (want.Err == nil) {
						t.Fatalf("batch %d: err %v, want %v", bi, res.Err, want.Err)
					}
					if res.Err != nil && res.Err.Error() != want.Err.Error() {
						t.Fatalf("batch %d: err %q, want %q", bi, res.Err, want.Err)
					}
					got := stateOf(m, nfeat)
					for i := range refStates[bi] {
						if got[i] != refStates[bi][i] {
							t.Fatalf("batch %d: state word %d = %x, want %x", bi, i, got[i], refStates[bi][i])
						}
					}
					gotP := append(liftedStateOf(m), cofactorStateOf(m)...)
					if len(gotP) != len(refPayload[bi]) {
						t.Fatalf("batch %d: payload width %d, want %d", bi, len(gotP), len(refPayload[bi]))
					}
					for i := range refPayload[bi] {
						if gotP[i] != refPayload[bi][i] {
							t.Fatalf("batch %d: payload word %d = %x, want %x", bi, i, gotP[i], refPayload[bi][i])
						}
					}
				}
			})
		}
	}
}

// TestCovarBatchBitwiseEqualSerialManyToMany is the batch certificate
// for the covar payload where the order of a product's factors shows in
// its bits. On the star schemas every dimension key is unique, so every
// child view a root tuple multiplies has count 1 and integer-free
// reassociation goes unseen. Here every dimension repeats its keys
// (child views count 2–5 tuples, drained and reborn by the churn),
// Dim0 has a sub-dimension below it, and every feature is real-valued:
// two product orders round differently. ApplyBatch must still leave the
// result and every view entry bitwise equal to the grouped order
// applied tuple at a time, after every batch.
func TestCovarBatchBitwiseEqualSerialManyToMany(t *testing.T) {
	src := xrand.New(83)
	db := relation.NewDatabase()
	cat := func(name string) relation.Attribute { return relation.Attribute{Name: name, Type: relation.Category} }
	num := func(name string) relation.Attribute { return relation.Attribute{Name: name, Type: relation.Double} }
	fill := func(r *relation.Relation, rows int, keys ...int) {
		start := r.Grow(rows)
		for row := start; row < start+rows; row++ {
			for c, dom := range keys {
				r.Col(c).C[row] = int32(src.Intn(dom))
			}
			for c := len(keys); c < r.NumAttrs(); c++ {
				r.Col(c).F[row] = src.Float64()*3 - 1.1
			}
		}
	}
	fact := db.NewRelation("Fact", []relation.Attribute{cat("k0"), cat("k1"), num("fx"), num("fy")})
	dim0 := db.NewRelation("Dim0", []relation.Attribute{cat("k0"), cat("sk"), num("d0x"), num("d0y")})
	sub := db.NewRelation("Sub0", []relation.Attribute{cat("sk"), num("sx")})
	dim1 := db.NewRelation("Dim1", []relation.Attribute{cat("k1"), num("d1x")})
	fill(fact, 160, 5, 4)
	fill(dim0, 14, 5, 3)
	fill(sub, 9, 3)
	fill(dim1, 12, 4)
	j := query.NewJoin(fact, dim0, sub, dim1)
	feats := []string{"fx", "fy", "d0x", "d0y", "sx", "d1x"}
	mk := func() *FIVM {
		m, err := NewFIVM(j, "Fact", feats)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	batched, serial := mk(), mk()
	wide := false
	for bi, ops := range batchesOf(streamOf(db, 31), 47) {
		batched.ApplyBatch(ops)
		applySerialGrouped(serial, ops)
		if g, w := stateOf(batched, len(feats)), stateOf(serial, len(feats)); !slices.Equal(g, w) {
			t.Fatalf("batch %d: batched and tuple-at-a-time results differ", bi)
		}
		serialViews := make(map[int]map[uint64]*ring.Covar)
		for n, v := range serial.cv.views {
			serialViews[n.id] = v
		}
		for n, v := range batched.cv.views {
			sv := serialViews[n.id]
			if len(v) != len(sv) {
				t.Fatalf("batch %d, %s view: %d keys batched, %d tuple-at-a-time", bi, n.rel.Name, len(v), len(sv))
			}
			//borg:nondeterministic-ok — every entry is checked alone
			for k, e := range v {
				if s, ok := sv[k]; !ok || !slices.Equal(covarBits(e), covarBits(s)) {
					t.Fatalf("batch %d, %s view, key %x: batched and tuple-at-a-time entries differ", bi, n.rel.Name, k)
				}
				wide = wide || (n.parent != nil && n.parent.parent == nil && e.Count > 1)
			}
		}
	}
	if !wide {
		t.Fatal("no child view of the root ever counted more than one tuple")
	}
}

// TestApplyBatchApproxEqualOriginalOrder checks the semantic claim
// behind grouping: reordering ops of DIFFERENT relations only commutes
// ring additions, so the batch path's final statistics agree with a
// tuple-at-a-time replay in the ORIGINAL op order up to floating-point
// reassociation. (The schedule never makes an op depend on a same-batch
// op of another relation, so the op success pattern is order-invariant.)
func TestApplyBatchApproxEqualOriginalOrder(t *testing.T) {
	spec := testdb.StarSpec{Seed: 71, FactRows: 220, DimRows: []int{11, 6}}
	db, _, _, _ := testdb.RandomStar(spec)
	stream := streamOf(db, 29)
	batches := batchesOf(stream, 43)
	approx := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	mk, nfeat := fivmOver(spec)
	m, ref := mk(PayloadCovar), mk(PayloadCovar)
	for _, ops := range batches {
		m.ApplyBatch(ops)
		for i := range ops {
			serialApply(ref, &ops[i])
		}
	}
	if !approx(m.Count(), ref.Count()) {
		t.Fatalf("Count %v vs original-order %v", m.Count(), ref.Count())
	}
	for i := 0; i < nfeat; i++ {
		if !approx(m.Sum(i), ref.Sum(i)) {
			t.Fatalf("Sum(%d) %v vs original-order %v", i, m.Sum(i), ref.Sum(i))
		}
		for j := 0; j < nfeat; j++ {
			if !approx(m.Moment(i, j), ref.Moment(i, j)) {
				t.Fatalf("Moment(%d,%d) %v vs original-order %v", i, j, m.Moment(i, j), ref.Moment(i, j))
			}
		}
	}
}

// TestSnapshotIntoZeroAlloc certifies the arena publication hot path:
// once the destination is sized, SnapshotInto must not allocate, and
// PublishInto allocates its float backing only, for the covar and the
// poly2 payload alike.
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	spec := testdb.StarSpec{Seed: 13, FactRows: 80, DimRows: []int{7, 5}}
	db, _, _, _ := testdb.RandomStar(spec)
	stream := streamOf(db, 3)
	mk, _ := fivmOver(spec)
	for _, payload := range []Payload{PayloadCovar, PayloadPoly2} {
		m := mk(payload)
		for _, tu := range stream {
			if err := m.Insert(tu); err != nil {
				t.Fatalf("%s: %v", payload, err)
			}
		}
		var cov ring.Covar
		m.SnapshotInto(&cov)
		if a := testing.AllocsPerRun(100, func() { m.SnapshotInto(&cov) }); a != 0 {
			t.Errorf("%s: SnapshotInto allocates %.0f/op, want 0", payload, a)
		}
		if got, want := published(m).Lifted != nil, payload == PayloadPoly2; got != want {
			t.Fatalf("%s: published Lifted non-nil = %v, want %v", payload, got, want)
		}
		var p Published
		if a := testing.AllocsPerRun(100, func() { p = Published{}; m.PublishInto(&p) }); a != 1 {
			t.Errorf("%s: PublishInto allocates %.0f/op, want 1 (the float backing)", payload, a)
		}
	}
}
