package ivm

import (
	"fmt"
	"maps"
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

// The maintainer driver of the history harness (internal/testdb): every
// property below runs over seeded histories of inserts, deletes,
// updates and flushes on random star and snowflake schemas, checks
// them against testdb's nested-loop oracle, and on a failure shrinks the
// history and prints it as a Go literal to paste in as a regression
// case. Dyadic histories are checked bitwise, real ones to 1e-9.

// forHistories runs check over four histories shaped by cfg (two under
// -short), seeded from the test's name so every test draws its own.
func forHistories(t *testing.T, cfg testdb.Config, check func(h *testdb.History) error) {
	t.Helper()
	runHistories(t, 4, cfg, check)
}

func runHistories(t *testing.T, n int, cfg testdb.Config, check func(h *testdb.History) error) {
	t.Helper()
	if testing.Short() {
		n = (n + 1) / 2
	}
	if err := testdb.Run(t.Name(), n, cfg, check); err != nil {
		t.Fatal(err)
	}
}

// replay is a history made ready for the maintainers: its join, and its
// steps cut at every flush into batches of ops. Each batch also ends
// with two ops that must fail (an unknown relation, a wrong arity), and
// its first delete and a later insert into another relation become one
// cross-relation update, which ApplyBatch must take serially.
type replay struct {
	h       *testdb.History
	db      *relation.Database
	j       *query.Join
	exact   bool
	batches [][]Op
	ends    []int // the step each batch's flush follows
}

func newReplay(h *testdb.History) *replay {
	r := &replay{h: h, exact: !h.Config.Real}
	r.db, r.j = h.Database()
	var ops []Op
	for i, s := range h.Steps {
		tu := Tuple{Rel: s.Rel}
		if s.Rel != "" {
			tu.Values = testdb.Values(r.db, s.Rel, s.Row)
		}
		switch s.Kind {
		case testdb.Insert:
			ops = append(ops, Op{Kind: OpInsert, Tuple: tu})
		case testdb.Delete:
			ops = append(ops, Op{Kind: OpDelete, Tuple: tu})
		case testdb.Update:
			ops = append(ops, Op{Kind: OpUpdate, Old: tu, Tuple: Tuple{Rel: s.Rel, Values: testdb.Values(r.db, s.Rel, s.New)}})
		case testdb.Flush, testdb.Close:
			if len(ops) == 0 {
				continue
			}
			r.batches = append(r.batches, append(crossUpdate(ops),
				Op{Kind: OpInsert, Tuple: Tuple{Rel: "NoSuchRel", Values: ops[0].Tuple.Values}},
				Op{Kind: OpDelete, Tuple: Tuple{Rel: ops[0].Tuple.Rel, Values: ops[0].Tuple.Values[:1]}}))
			r.ends = append(r.ends, i)
			ops = nil
		}
	}
	return r
}

// crossUpdate folds a delete and an insert into another relation into
// one update at the delete's place, where no other op of the batch
// names a tuple equal to either: the two then commute with every other
// op, so the batch leaves the same survivors in any order, the grouped
// order ApplyBatch takes included.
func crossUpdate(ops []Op) []Op {
	alone := func(i int) bool {
		t := ops[i].Tuple
		for k, o := range ops {
			if k != i && (same(o.Tuple, t) || o.Kind == OpUpdate && same(o.Old, t)) {
				return false
			}
		}
		return true
	}
	for i, d := range ops {
		if d.Kind != OpDelete || !alone(i) {
			continue
		}
		for k, o := range ops {
			if o.Kind == OpInsert && o.Tuple.Rel != d.Tuple.Rel && alone(k) {
				ops[i] = Op{Kind: OpUpdate, Old: d.Tuple, Tuple: o.Tuple}
				return slices.Delete(ops, k, k+1)
			}
		}
	}
	return ops
}

func same(a, b Tuple) bool { return a.Rel == b.Rel && slices.Equal(a.Values, b.Values) }

// features returns the continuous features in an order drawn from the
// history's seed, and with the categorical ones appended under
// PayloadCofactor.
func (r *replay) features(p Payload) []string {
	f := r.h.Cont()
	xrand.New(r.h.Config.Seed).Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	if p == PayloadCofactor {
		f = append(f, r.h.Cats()...)
	}
	return f
}

// check holds m's maintained state after step upto to the oracle: the
// triple always, and the payload's element.
func (r *replay) check(m Maintainer, upto int) error {
	o := r.h.Survivors(upto)
	if err := testdb.CompareCovar(m.Snapshot(), o.Covar(m.ContFeatures()), r.exact); err != nil {
		return fmt.Errorf("%s after step %d: %w", m.Name(), upto, err)
	}
	f, ok := m.(*FIVM)
	if !ok {
		return nil
	}
	var err error
	switch {
	case f.pr != nil:
		err = testdb.ComparePoly2(published(f).Lifted, o.Poly2(f.pr, f.contFeats), r.exact)
	case f.root != nil:
		name := func(slot int, code int32) string { return r.db.Dict(f.catFeats[slot]).Name(code) }
		err = testdb.CompareCofactor(f.SnapshotCofactor(), name, o.Cofactor(f.contFeats, f.catFeats), r.exact)
	}
	if err != nil {
		return fmt.Errorf("%s after step %d: %w", m.Name(), upto, err)
	}
	if !o.Live() && r.exact {
		return drained(m)
	}
	return nil
}

// drained reports a view entry that outlived the live set.
func drained(m Maintainer) error {
	n := 0
	switch m := m.(type) {
	case *FIVM:
		n = entries(m.cv) + entries(m.p2) + entries(m.cf)
	case *HigherOrder:
		//borg:nondeterministic-ok — a count
		for _, vs := range m.views {
			for _, v := range vs {
				n += len(v)
			}
		}
	}
	if n != 0 {
		return fmt.Errorf("%s: %d view entries survive the last live row", m.Name(), n)
	}
	return nil
}

func entries[E any](vt *viewTree[E]) int {
	n := 0
	if vt != nil {
		for _, v := range vt.views {
			n += len(v)
		}
	}
	return n
}

// fivm replays h through an F-IVM maintainer, each batch one ApplyBatch,
// and through a twin applying each batch tuple at a time in the grouped
// order. After every batch the two agree bitwise — results, triple,
// payload element and every view entry — and the maintainer matches the
// oracle.
func fivm(h *testdb.History, p Payload, workers int, root string, opts ...Option) error {
	r := newReplay(h)
	mk := func() (*FIVM, error) {
		return NewFIVM(r.j, root, r.features(p), append(opts, WithPayload(p))...)
	}
	m, err := mk()
	if err != nil {
		return err
	}
	m.SetRuntime(exec.Runtime{Workers: workers, MorselSize: 8})
	twin, _ := mk()
	for bi, ops := range r.batches {
		got, want := m.ApplyBatch(ops), applySerialGrouped(twin, ops)
		if got.Inserts != want.Inserts || got.Deletes != want.Deletes || got.FullyFailed != want.FullyFailed || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
			return fmt.Errorf("batch %d: result %+v, tuple at a time %+v", bi, got, want)
		}
		if !slices.Equal(fivmBits(m), fivmBits(twin)) || !maps.EqualFunc(viewBits(m), viewBits(twin), slices.Equal) {
			return fmt.Errorf("batch %d: batched and tuple-at-a-time states differ", bi)
		}
		if err := r.check(m, r.ends[bi]); err != nil {
			return err
		}
	}
	return nil
}

// fivmBits is a maintainer's triple and payload element as raw bits.
func fivmBits(m *FIVM) []uint64 {
	out := covarBits(m.Snapshot())
	if p := published(m).Lifted; p != nil {
		out = append(out, floatBits(p.M)...)
	}
	if e := m.SnapshotCofactor(); e != nil {
		out = append(out, cofactorBits(e)...)
	}
	return out
}

// viewBits is every view entry of m as raw bits, by node and key.
func viewBits(m *FIVM) map[string][]uint64 {
	out := make(map[string][]uint64)
	collect(out, m.cv, covarBits)
	collect(out, m.p2, func(e *ring.Poly2) []uint64 { return floatBits(e.M) })
	collect(out, m.cf, cofactorBits)
	return out
}

func collect[E any](out map[string][]uint64, vt *viewTree[E], bits func(E) []uint64) {
	if vt == nil {
		return
	}
	for n, v := range vt.views {
		//borg:nondeterministic-ok — every entry is keyed alone
		for k, e := range v {
			out[fmt.Sprint(n.id, "/", k)] = bits(e)
		}
	}
}

// scalar replays h through a Figure 4 baseline tuple at a time.
func scalar(h *testdb.History, mk func(*query.Join, string, []string, ...Option) (Maintainer, error), root string, opts ...Option) error {
	r := newReplay(h)
	m, err := mk(r.j, root, r.features(PayloadCovar), opts...)
	if err != nil {
		return err
	}
	for bi, ops := range r.batches {
		for i := range ops {
			serialApply(m, &ops[i])
		}
		if err := r.check(m, r.ends[bi]); err != nil {
			return err
		}
	}
	return nil
}

var strategies = map[string]func(*query.Join, string, []string, ...Option) (Maintainer, error){
	"higher": func(j *query.Join, root string, f []string, o ...Option) (Maintainer, error) {
		return NewHigherOrder(j, root, f, o...)
	},
	"first": func(j *query.Join, root string, f []string, o ...Option) (Maintainer, error) {
		return NewFirstOrder(j, root, f, o...)
	},
}

// everyOrder runs run under a variable order rooted at each relation of
// h's join, and under the fact-rooted tree whose children cardinality
// hints falling in declaration order turn around (greedy attaches the
// smallest first).
func everyOrder(h *testdb.History, run func(root string, opts ...Option) error) error {
	cards := make(map[string]int)
	for i, rel := range h.Schema() {
		cards[rel.Name] = 1000 - 100*i
		if err := run(rel.Name); err != nil {
			return fmt.Errorf("root %s: %w", rel.Name, err)
		}
	}
	if err := run("Fact", WithCardinalities(cards)); err != nil {
		return fmt.Errorf("reordered: %w", err)
	}
	return nil
}

var payloadNames = map[Payload]string{PayloadCovar: "lifted=false", PayloadPoly2: "lifted=true", PayloadCofactor: "cofactor"}

// TestApplyBatchBitwiseEqualSerial: for every payload and worker count,
// ApplyBatch leaves results, triple, payload element and every view
// entry bitwise equal to the grouped order applied tuple at a time,
// after every batch (failing ops and cross-relation updates included),
// and the state matches the oracle. Workers 1 and 8 replay real-valued
// histories, where the two paths would differ if they multiplied in
// different orders; workers 2 replays dyadic ones, checked bitwise
// against the oracle too.
func TestApplyBatchBitwiseEqualSerial(t *testing.T) {
	for _, p := range []Payload{PayloadCovar, PayloadPoly2, PayloadCofactor} {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("F-IVM/%s/workers=%d", payloadNames[p], w), func(t *testing.T) {
				forHistories(t, testdb.Config{Real: w != 2}, func(h *testdb.History) error { return fivm(h, p, w, "Fact") })
			})
		}
	}
}

// TestCovarBatchBitwiseEqualSerialManyToMany is the batch certificate
// where the order of a product's factors shows in its bits: real values,
// a snowflake with three dimensions, and repeated dimension keys, so a
// child view of the root counts several tuples.
func TestCovarBatchBitwiseEqualSerialManyToMany(t *testing.T) {
	cfg := testdb.Config{Real: true, Snowflake: true, Dims: 3}
	forHistories(t, cfg, func(h *testdb.History) error { return fivm(h, PayloadCovar, 1, "Fact") })
	wide := false
	forHistories(t, cfg, func(h *testdb.History) error {
		r := newReplay(h)
		m, err := NewFIVM(r.j, "Fact", r.features(PayloadCovar))
		if err != nil {
			return err
		}
		for _, ops := range r.batches {
			m.ApplyBatch(ops)
			for n, v := range m.cv.views {
				//borg:nondeterministic-ok — looks for any entry
				for _, e := range v {
					wide = wide || n.parent != nil && n.parent.parent == nil && e.Count > 1
				}
			}
		}
		return nil
	})
	if !wide {
		t.Fatal("no child view of the root ever counted more than one tuple")
	}
}

// TestVarOrderEquivalence: every strategy under every variable order —
// rooted at each relation, and reordered by cardinality hints — matches
// the oracle at every flush, F-IVM over every payload and the Figure 4
// baselines over covar.
func TestVarOrderEquivalence(t *testing.T) {
	for _, p := range []Payload{PayloadCovar, PayloadPoly2, PayloadCofactor} {
		t.Run("fivm/"+p.String(), func(t *testing.T) {
			forHistories(t, testdb.Config{Snowflake: p == PayloadCovar}, func(h *testdb.History) error {
				return everyOrder(h, func(root string, o ...Option) error { return fivm(h, p, 1, root, o...) })
			})
		})
	}
	for _, name := range []string{"first", "higher"} {
		t.Run(name+"/covar", func(t *testing.T) {
			forHistories(t, testdb.Config{Real: name == "first"}, func(h *testdb.History) error {
				return everyOrder(h, func(root string, o ...Option) error { return scalar(h, strategies[name], root, o...) })
			})
		})
	}
}

// allStrategies replays h through F-IVM over p and, over covar, through
// the two Figure 4 baselines, each rooted at the fact.
func allStrategies(p Payload) func(h *testdb.History) error {
	return func(h *testdb.History) error {
		if err := fivm(h, p, 1, "Fact"); err != nil || p != PayloadCovar {
			return err
		}
		for _, name := range []string{"higher", "first"} {
			if err := scalar(h, strategies[name], "Fact"); err != nil {
				return err
			}
		}
		return nil
	}
}

// The tests below run the harness over two histories each of the shapes
// their names describe. Every generated history mixes these shapes —
// dangling fact keys, facts before their dimensions, dimension deletes
// and updates, drains to an empty join and regrowth — and checks every
// flush, and an exact drain's views, against the oracle; each test
// leans on one shape.

func TestAllStrategiesMatchBatchRecompute(t *testing.T) {
	runHistories(t, 2, testdb.Config{}, allStrategies(PayloadCovar))
}

func TestStrategiesAgreeMidStream(t *testing.T) {
	runHistories(t, 2, testdb.Config{Real: true, Dims: 2}, allStrategies(PayloadCovar))
}

func TestRetractionsMatchBatchRecompute(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 2, Steps: 240}, allStrategies(PayloadCovar))
}

func TestSnowflakeMaintenance(t *testing.T) {
	runHistories(t, 2, testdb.Config{Snowflake: true}, allStrategies(PayloadCovar))
}

func TestDanglingInsertsContributeNothing(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 1}, allStrategies(PayloadCovar))
}

func TestLateDimensionArrival(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 3}, allStrategies(PayloadCovar))
}

func TestDeleteToEmptyAndReinsert(t *testing.T) {
	runHistories(t, 2, testdb.Config{Steps: 40}, allStrategies(PayloadCovar))
}

func TestDeleteDanglingAndDimension(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 1, Snowflake: true}, allStrategies(PayloadCovar))
}

func TestViewsPrunedUnderChurn(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 3, Snowflake: true}, allStrategies(PayloadCovar))
}

func TestLiftedMatchesBruteForce(t *testing.T) {
	runHistories(t, 2, testdb.Config{Snowflake: true}, allStrategies(PayloadPoly2))
}

func TestLiftedViewsPrunedUnderChurn(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 3}, allStrategies(PayloadPoly2))
}

// TestLiftedCovarMatchesPlain: a poly2 maintainer's triple is the
// oracle's, bit for bit on dyadic data — so it is the covar
// maintainer's.
func TestLiftedCovarMatchesPlain(t *testing.T) {
	runHistories(t, 2, testdb.Config{Dims: 2}, allStrategies(PayloadPoly2))
}

// TestApplyBatchApproxEqualOriginalOrder: ApplyBatch reorders ops of
// different relations, which only commutes ring additions, so at every
// flush its state is within 1e-9 of the oracle's order-free recompute
// on real data, over every payload.
func TestApplyBatchApproxEqualOriginalOrder(t *testing.T) {
	for _, p := range []Payload{PayloadCovar, PayloadPoly2, PayloadCofactor} {
		forHistories(t, testdb.Config{Real: true}, func(h *testdb.History) error { return fivm(h, p, 1, "Fact") })
	}
}

// featureOrders replays h under three orders of the same features — the
// schema's, reversed and shuffled (a new shuffle per -count) — and hands
// each maintainer to check with its order, after every batch. A covar
// maintainer's products are counted throughout: every one must be a
// block product of disjoint slot ranges.
func featureOrders(h *testdb.History, p Payload, check func(m *FIVM, feats []string) error) error {
	r := newReplay(h)
	base := h.Cont()
	reversed := slices.Clone(base)
	slices.Reverse(reversed)
	shuffled := slices.Clone(base)
	orderRuns++
	xrand.New(orderRuns).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, feats := range [][]string{base, reversed, shuffled} {
		all := feats
		if p == PayloadCofactor {
			all = append(slices.Clone(feats), h.Cats()...)
		}
		m, err := NewFIVM(r.j, "Fact", all, WithPayload(p))
		if err != nil {
			return err
		}
		products, overlapping := 0, 0
		if m.cv != nil {
			m.cv.alg = overlapCounter{m.ring, &products, &overlapping}
		}
		for _, ops := range r.batches {
			m.ApplyBatch(ops)
			if err := check(m, feats); err != nil {
				return fmt.Errorf("features %v: %w", feats, err)
			}
		}
		if overlapping != 0 || m.cv != nil && products == 0 {
			return fmt.Errorf("features %v: %d of %d products had overlapping supports", feats, overlapping, products)
		}
	}
	return nil
}

var orderRuns uint64

// TestFIVMFeatureOrderInvariant: what F-IVM computes, and what it pays,
// does not depend on the order the caller lists the features in. Under
// every order every product of the maintenance path is a block product
// of disjoint slot ranges, every view element is exactly as wide as its
// subtree's feature count, and the triple, put back into the schema's
// order, is bitwise the same after every batch, on real data.
func TestFIVMFeatureOrderInvariant(t *testing.T) {
	forHistories(t, testdb.Config{Real: true, Snowflake: true}, func(h *testdb.History) error {
		var ref [][]uint64
		batch := 0
		return featureOrders(h, PayloadCovar, func(m *FIVM, feats []string) error {
			width := make([]int, len(m.nodes)) // nodes are in preorder: children after parents
			for i := len(m.nodes) - 1; i >= 0; i-- {
				n := m.nodes[i]
				width[i] += len(n.featIdx)
				if n.parent != nil {
					width[n.parent.id] += width[i]
				}
			}
			for n, v := range m.cv.views {
				if n.parent == nil && len(v) != 0 {
					return fmt.Errorf("the root's view has %d entries", len(v))
				}
				//borg:nondeterministic-ok — every entry is checked alone
				for _, e := range v {
					if len(e.Sum) != width[n.id] || len(e.Q) != width[n.id]*width[n.id] {
						return fmt.Errorf("a view element of %s is %d slots wide, its subtree has %d features", n.rel.Name, len(e.Sum), width[n.id])
					}
				}
			}
			got := covarBits(inOrder(m.Snapshot(), h.Cont(), feats))
			if batch == len(ref) {
				ref = append(ref, got)
			} else if !slices.Equal(got, ref[batch%len(ref)]) {
				return fmt.Errorf("triple differs bitwise from the schema order's")
			}
			batch++
			return nil
		})
	})
}

// TestFIVMCofactorFeatureOrderInvariant is the same for the cofactor
// payload, where the root delta lands on the result group by group:
// every group of the published element, put back into the schema's
// order, is bitwise the same whatever order was asked for.
func TestFIVMCofactorFeatureOrderInvariant(t *testing.T) {
	forHistories(t, testdb.Config{Real: true}, func(h *testdb.History) error {
		var ref [][]uint64
		batch := 0
		return featureOrders(h, PayloadCofactor, func(m *FIVM, feats []string) error {
			var got []uint64
			m.SnapshotCofactor().Each(func(codes []int32, g *ring.Covar) {
				for _, c := range codes {
					got = append(got, uint64(uint32(c)))
				}
				got = append(got, covarBits(inOrder(g, h.Cont(), feats))...)
			})
			got = append(got, covarBits(inOrder(m.Snapshot(), h.Cont(), feats))...)
			if batch == len(ref) {
				ref = append(ref, got)
			} else if !slices.Equal(got, ref[batch%len(ref)]) {
				return fmt.Errorf("published cofactor element differs bitwise from the schema order's")
			}
			batch++
			return nil
		})
	})
}

// overlapCounter is the covariance algebra with its products counted,
// and among them those whose operands' blocks overlap — the products
// that take the general four-term rule instead of the block rule.
type overlapCounter struct {
	ring.CovarRing
	products, overlapping *int
}

func (c overlapCounter) MulInto(dst, a, b *ring.Covar) *ring.Covar {
	*c.products++
	if len(a.Sum) > 0 && len(b.Sum) > 0 && a.Lo < b.Lo+len(b.Sum) && b.Lo < a.Lo+len(a.Sum) {
		*c.overlapping++
	}
	return c.CovarRing.MulInto(dst, a, b)
}

// inOrder returns e, whose slots hold features feats, with its slots
// holding the same features in the order want.
func inOrder(e *ring.Covar, want, feats []string) *ring.Covar {
	n := len(want)
	out := ring.CovarRing{N: n}.Zero()
	out.Count = e.Count
	for i, f := range want {
		pi := slices.Index(feats, f)
		out.Sum[i] = e.Sum[pi]
		for j, g := range want {
			out.Q[i*n+j] = e.Q[pi*n+slices.Index(feats, g)]
		}
	}
	return out
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

// published publishes m's current state as one epoch.
func published(m *FIVM) *Published {
	p := new(Published)
	m.PublishInto(p)
	return p
}

func floatBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func covarBits(e *ring.Covar) []uint64 {
	return append(floatBits([]float64{e.Count}), floatBits(append(slices.Clone(e.Sum), e.Q...))...)
}

// historyOps returns the ops of a generated history, batch after batch,
// over its join.
func historyOps(c testdb.Config) (*replay, []Op) {
	r := newReplay(testdb.Generate(c))
	return r, slices.Concat(r.batches...)
}

// randomTuples returns a dyadic two-dimension history's join, its
// continuous features with p, k0 and k1 as cofactor slots, and a draw
// of random tuples from its inserts.
func randomTuples(seed uint64) (*query.Join, []string, func(*xrand.Source) Tuple) {
	r, ops := historyOps(testdb.Config{Seed: seed, Steps: 200, Dims: 2})
	var pool []Tuple
	for _, o := range ops {
		if o.Kind == OpInsert && o.Tuple.Rel != "NoSuchRel" {
			pool = append(pool, o.Tuple)
		}
	}
	return r.j, append(r.h.Cont(), "p", "k0", "k1"), func(src *xrand.Source) Tuple { return pool[src.Intn(len(pool))] }
}
