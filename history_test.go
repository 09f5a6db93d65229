package borg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"borg/internal/ml"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/testdb"
	"borg/internal/xrand"
)

// The facade driver of the history harness (internal/testdb): seeded
// histories run through ShardedServer at 1–4 shards, over every payload,
// with the features in a drawn order, ingested through Insert, Delete
// and Update or through IngestJSON, by one producer or four, while a
// reader trains models and Hold steps keep epochs. After every flush
// the snapshot equals testdb's nested-loop oracle over the survivors —
// bitwise on dyadic data, to 1e-9 on real data — and its tallies the
// history's; an empty join answers ErrEmptySnapshot from every read;
// every model kind the payload serves equals the batch Query API over
// the survivors; and every held epoch re-reads bitwise what it read
// when taken. A failing history is shrunk and printed as a Go literal.

// run is one configuration of the facade driver.
type run struct {
	shards, producers int
	payload           Payload
	threshold         float64 // ServerOptions.ReplanThreshold
	root              string  // a pinned Query.Root
}

// histories runs dyadic and real histories shaped by cfg through r;
// each seed also draws the ingest path, the batching knobs and (when
// r.shards is 0) 2–4 shards.
func histories(t *testing.T, r run, cfg testdb.Config) {
	t.Helper()
	n := 3
	if testing.Short() || raceEnabled {
		n = 1
	}
	cfg.Producers = r.producers
	for _, real := range []bool{false, true} {
		cfg.Real = real
		err := testdb.Run(t.Name(), n, cfg, func(h *testdb.History) error {
			r := r
			if r.shards == 0 {
				r.shards = 2 + int(h.Config.Seed%3)
			}
			if err := r.replay(h); err != nil {
				return fmt.Errorf("%+v: %w", r, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// facadeDB declares h's schema as a facade database, every category of
// h interned in first-seen order, so two such databases agree on codes.
func facadeDB(h *testdb.History) *Database {
	db := NewDatabase()
	for _, r := range h.Schema() {
		fields := make([]Field, len(r.Attrs))
		for i, a := range r.Attrs {
			fields[i] = Field{Name: a.Name, Categorical: a.Type == relation.Category}
		}
		db.AddRelation(r.Name, fields...)
	}
	h.Intern(db.db)
	return db
}

// check is one replay: its server and what it is checked against.
type check struct {
	run
	h      *testdb.History
	db     *Database
	srv    *ShardedServer
	greedy bool // never pinned, or replanned since
	// replanned: a Replan ran since the last flush. It plans from
	// cardinalities read before the writer applies it, so ops applied in
	// between can leave the drift past the threshold until the next
	// publication of pending ops.
	replanned bool
	flush     int
	held      []*ServerSnapshot
	bits      [][]uint64 // each held epoch's bits when taken
}

// replay runs h through a fresh server under r.
func (r run) replay(h *testdb.History) (err error) {
	db := facadeDB(h)
	q, err := db.Query()
	if err != nil {
		return err
	}
	q.Root = r.root
	feats, seed := h.Cont(), h.Config.Seed
	xrand.New(seed).Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
	if r.payload == PayloadCofactor {
		feats = append(feats, h.Cats()...)
	}
	srv, err := q.ServeSharded(feats, ShardOptions{
		ServerOptions: ServerOptions{BatchSize: 1 + int(seed%13), QueueDepth: 4 + int(seed%29), Payload: r.payload, ReplanThreshold: r.threshold},
		Shards:        r.shards,
		PartitionBy:   testdb.Partition,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	c := &check{run: r, h: h, db: db, srv: srv, greedy: r.root == ""}
	reader := make(chan error)
	go c.read(reader)
	defer func() {
		reader <- nil
		err = errors.Join(err, <-reader)
	}()
	err = h.Replay(func(ops []testdb.Step) error { return c.send(ops, seed%2 == 1) }, func(i int) error {
		switch h.Steps[i].Kind {
		case testdb.Hold:
			s := srv.CovarSnapshot()
			c.held, c.bits = append(c.held, s), append(c.bits, snapBits(s))
		case testdb.Replan:
			c.greedy, c.replanned = true, true
			return srv.Replan()
		case testdb.Flush:
			if err := c.flushed(i); err != nil {
				return fmt.Errorf("after step %d: %w", i, err)
			}
		case testdb.Close:
			return srv.Close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	for k, s := range c.held {
		if !slices.Equal(snapBits(s), c.bits[k]) {
			return fmt.Errorf("held epoch %d (epoch %d) changed after it was taken", k, s.Epoch())
		}
		if r.producers > 1 || r.shards > 1 {
			continue // a merged epoch, or one of several producers, is no prefix of the history
		}
		upto := 0
		for ins, del := h.Tallies(upto); ins != s.Inserts() || del != s.Deletes(); ins, del = h.Tallies(upto) {
			if upto++; upto > len(h.Steps) {
				return fmt.Errorf("held epoch %d covers %d inserts and %d deletes, no prefix of the history", k, s.Inserts(), s.Deletes())
			}
		}
		if err := c.stats(s, h.Survivors(upto)); err != nil {
			return fmt.Errorf("held epoch %d, the prefix of %d steps: %w", k, upto, err)
		}
	}
	return nil
}

// send issues one producer's row ops in order: through Insert, Delete
// and Update, or as IngestJSON bodies of up to five ops, where a body
// of deletes only goes with forceDelete and no "op" keys.
func (c *check) send(ops []testdb.Step, json bool) error {
	row := func(vals []any) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			if s, ok := v.(string); ok {
				parts[i] = strconv.Quote(s)
			} else {
				parts[i] = strconv.FormatFloat(v.(float64), 'g', -1, 64)
			}
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	for lo := 0; lo < len(ops); {
		hi := min(lo+1+(lo+len(ops))%5, len(ops))
		force := !slices.ContainsFunc(ops[lo:hi], func(s testdb.Step) bool { return s.Kind != testdb.Delete })
		var body []string
		var errs []error
		for _, s := range ops[lo:hi] {
			op := fmt.Sprintf(`{"rel":%q,"values":%s`, s.Rel, row(s.Row))
			switch {
			case !json && s.Kind == testdb.Insert:
				errs = append(errs, c.srv.Insert(s.Rel, s.Row...))
			case !json && s.Kind == testdb.Delete:
				errs = append(errs, c.srv.Delete(s.Rel, s.Row...))
			case !json:
				errs = append(errs, c.srv.Update(s.Rel, s.Row, s.New))
			case s.Kind == testdb.Update:
				op += `,"op":"update","new":` + row(s.New)
			case s.Kind == testdb.Delete && !force:
				op += `,"op":"delete"`
			}
			body = append(body, op+"}")
		}
		if json {
			res, err := c.srv.IngestJSON([]byte("["+strings.Join(body, ",")+"]"), force)
			errs = append(append(errs, err), res.Errors...)
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// read trains the payload's models on every epoch it loads until told
// to stop, then answers with its failure: an epoch that went backwards,
// or a read failing otherwise than with ErrEmptySnapshot.
func (c *check) read(stop chan error) {
	var last uint64
	for {
		select {
		case <-stop:
			stop <- nil
			return
		default:
		}
		s := c.srv.CovarSnapshot()
		_, err := s.TrainLinReg(testdb.Response, 1e-3)
		switch c.payload {
		case PayloadPoly2:
			_, e := s.TrainPolyReg(testdb.Response, 1e-3)
			err = errors.Join(err, e)
		case PayloadCofactor:
			_, e1 := s.TrainCTree(testdb.Response, TreeOptions{MaxDepth: 2})
			_, e2 := s.TrainChowLiu()
			err = errors.Join(err, e1, e2)
		}
		if s.Epoch() < last || err != nil && !errors.Is(err, ErrEmptySnapshot) {
			<-stop
			stop <- fmt.Errorf("reader: epoch %d after %d: %v", s.Epoch(), last, err)
			return
		}
		last = s.Epoch()
	}
}

// snapBits is what a snapshot holds, as raw bits.
func snapBits(s *ServerSnapshot) []uint64 {
	var out []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
	}
	covar := func(c *ring.Covar) { add(c.Count); add(c.Sum...); add(c.Q...) }
	covar(s.Covar())
	if l := s.snap.Lifted; l != nil {
		add(l.M...)
	}
	if cf := s.Cofactor(); cf != nil {
		cf.Each(func(codes []int32, g *ring.Covar) {
			for _, code := range codes {
				add(float64(code))
			}
			covar(g)
		})
	}
	return out
}

// flushed checks the server after the flush at step upto.
func (c *check) flushed(upto int) error {
	if err := c.srv.Flush(); err != nil {
		return err
	}
	s, st := c.srv.CovarSnapshot(), c.srv.Stats()
	if ins, del := c.h.Tallies(upto); s.Inserts() != ins || s.Deletes() != del || st.Inserts != ins || st.Deletes != del || st.Queued != 0 {
		return fmt.Errorf("snapshot tallies %d/%d, stats %d/%d with %d queued; the history applied %d/%d",
			s.Inserts(), s.Deletes(), st.Inserts, st.Deletes, st.Queued, ins, del)
	}
	o := c.h.Survivors(upto)
	if err := c.stats(s, o); err != nil {
		return err
	}
	// Auto-replanning holds a greedy shard's drift below the threshold
	// at every publication; a tier-wide Replan roots every shard alike.
	if c.threshold > 0 && c.greedy && !c.replanned && c.shards == 1 && st.Drift >= c.threshold {
		return fmt.Errorf("drift %v at or past the replan threshold %v on a greedy server", st.Drift, c.threshold)
	}
	c.replanned = false
	populated := 0
	for i, row := range st.Shards {
		if c.threshold == 0 && row.Root != st.Root {
			return fmt.Errorf("shard %d is rooted at %s, shard 0 at %s", i, row.Root, st.Root)
		}
		if row.Inserts > 0 {
			populated++
		}
	}
	// The router spreads partition values: three of them (codes 0–2 in
	// first-use order) hash onto two shards or more at 2–4 shards.
	parts := make(map[any]bool)
	for _, s := range c.h.Steps[:upto] {
		if s.Kind == testdb.Insert {
			parts[s.Row[0]] = true
		}
	}
	if c.shards > 1 && len(parts) >= 3 && populated < 2 {
		return fmt.Errorf("rows of %d partition values reached only %d of %d shards", len(parts), populated, c.shards)
	}
	if s.Count() == 0 {
		return c.empty(s)
	}
	if c.flush++; c.h.Config.Real || c.flush%3 != 0 && upto < len(c.h.Steps)-2 {
		return nil
	}
	return c.models(s, o)
}

// stats holds a snapshot's statistics to the oracle: the triple, and
// the payload's element.
func (c *check) stats(s *ServerSnapshot, o *testdb.Oracle) error {
	exact, cont, cats := !c.h.Config.Real, c.srv.Features(), c.srv.CatFeatures()
	err := testdb.CompareCovar(s.Covar(), o.Covar(cont), exact)
	switch {
	case err != nil:
	case c.payload == PayloadPoly2:
		err = testdb.ComparePoly2(s.snap.Lifted, o.Poly2(ring.NewPoly2Ring(len(cont)), cont), exact)
	case c.payload == PayloadCofactor:
		name := func(slot int, code int32) string { return c.db.db.Dict(cats[slot]).Name(code) }
		err = testdb.CompareCofactor(s.Cofactor(), name, o.Cofactor(cont, cats), exact)
	}
	return err
}

// empty holds an empty join's snapshot (and the server's reads of it:
// nothing is being written) to the typed-error contract:
// every read answers ErrEmptySnapshot, or ErrPayloadNotMaintained for a
// model kind the payload does not serve.
func (c *check) empty(s *ServerSnapshot) error {
	const y = testdb.Response
	f := c.srv.Features()
	errs := make([]error, 10)
	_, errs[0] = c.srv.CovarSnapshot().Mean(f[0])
	_, errs[1] = c.srv.CovarSnapshot().SecondMoment(f[0], f[1])
	_, errs[2] = s.TrainLinReg(y, 1e-3)
	_, errs[3] = s.TrainLinRegGD(y, 1e-3, GDOptions{})
	_, errs[4] = s.TrainPCA(2)
	_, errs[5] = s.KMeansSeeds(3)
	_, errs[6] = s.TrainPolyReg(y, 1e-3)
	_, errs[7] = s.TrainChowLiu()
	_, errs[8] = s.TrainCTree(y, TreeOptions{})
	_, errs[9] = s.TrainSVM(y, 1e-3)
	for i, err := range errs {
		if !errors.Is(err, ErrEmptySnapshot) && !(i >= 6 && errors.Is(err, ErrPayloadNotMaintained)) {
			return fmt.Errorf("read %d of an empty join: %v, want ErrEmptySnapshot", i, err)
		}
	}
	return nil
}

// near compares model parameters to 1e-9.
func near(what string, live, batch []float64) error {
	if len(live) != len(batch) {
		return fmt.Errorf("%s: %d parameters, batch %d", what, len(live), len(batch))
	}
	for i := range live {
		if !testdb.Near(live[i], batch[i], false) {
			return fmt.Errorf("%s: parameter %d live %v, batch %v", what, i, live[i], batch[i])
		}
	}
	return nil
}

// models trains every model kind the payload serves on the snapshot
// and the same kind through the batch Query API over a database of the
// survivors (PCA and k-means, which it lacks, from the oracle's triple;
// linreg through the server, which reads the same epoch),
// and holds the served linreg and tree's TrainingRMSE to their RMSE
// over the oracle's joined survivors.
func (c *check) models(s *ServerSnapshot, o *testdb.Oracle) error {
	ref := facadeDB(c.h)
	var errs []error
	try := func(v any, err error) any { errs = append(errs, err); return v }
	for _, r := range c.h.Schema() {
		for _, row := range o.Rows(r.Name) {
			errs = append(errs, ref.Relation(r.Name).Append(row...))
		}
	}
	rq := try(ref.Query()).(*Query)
	const y = testdb.Response
	cont, cats, joined := c.srv.Features(), c.srv.CatFeatures(), o.Relation(c.db.db)
	others := slices.DeleteFunc(slices.Clone(cont), func(f string) bool { return f == y })
	scored := func(m scored) error { _, _, err := trainingRMSE(m, joined, y); return err }
	if c.payload == PayloadCofactor {
		feats := Features{Continuous: others, Categorical: cats}
		lin := try(s.TrainLinRegGD(y, 1e-2, GDOptions{})).(*LinearRegression)
		blin := try(rq.LinearRegression(feats, y, 1e-2)).(*LinearRegression)
		svm := try(s.TrainSVM(y, 1e-3)).(*SVMClassifier)
		bsvm := try(ml.TrainLSSVM(try(rq.covariance(feats, y)).(*ml.Sigma), 1e-3)).(*ml.LSSVM)
		tree := try(s.TrainCTree(y, TreeOptions{MaxDepth: 3})).(*DecisionTree)
		btree := try(rq.DecisionTree(Features{Categorical: cats}, y, TreeOptions{MaxDepth: 3})).(*DecisionTree)
		edges := try(s.TrainChowLiu()).([]DependencyEdge)
		bedges := try(rq.ChowLiu(cats)).([]DependencyEdge)
		poly := try(s.TrainPolyReg(y, 1e-2)).(*PolyRegression)
		// The varying-coefficients polyreg has no batch Query form: lift the
		// oracle's joined survivors into a cofactor element instead.
		cr := ring.CofactorRing{N: len(cont), K: len(cats)}
		acc, slots := cr.Zero(), []int{0, 1, 2, 3, 4, 5, 6, 7}
		for row := 0; row < joined.NumRows(); row++ {
			vals, codes := make([]float64, len(cont)), make([]int32, len(cats))
			for i, f := range cont {
				vals[i] = joined.Float(joined.AttrIndex(f), row)
			}
			for i, f := range cats {
				codes[i] = joined.Cat(joined.AttrIndex(f), row)
			}
			cr.AddInPlace(acc, cr.LiftCat(slots[:len(cont)], vals, slots[:len(cats)], codes))
		}
		bpoly := try(ml.TrainCatPolyFromCofactor(cont, cats, y, acc, 1e-2)).(*ml.CatPoly)
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if tree.Nodes() != btree.Nodes() || tree.Depth() != btree.Depth() {
			return fmt.Errorf("ctree of %d nodes and depth %d, batch %d and %d", tree.Nodes(), tree.Depth(), btree.Nodes(), btree.Depth())
		}
		// A Chow–Liu tree is unique up to ties in mutual information, which
		// live and batch sum in different orders: compare the edge weights.
		mi := func(es []DependencyEdge) (out []float64) {
			for _, e := range es {
				out = append(out, e.MI)
			}
			slices.Sort(out)
			return out
		}
		return errors.Join(near("linreg", lin.model.Theta, blin.model.Theta), near("svm", svm.model.Theta, bsvm.Theta),
			near("chowliu", mi(edges), mi(bedges)), near("catpoly", poly.cat.Theta, bpoly.Theta), scored(lin), scored(tree))
	}
	lin := try(c.srv.CovarSnapshot().TrainLinReg(y, 1e-3)).(*LinearRegression)
	blin := try(rq.LinearRegression(Features{Continuous: others}, y, 1e-3)).(*LinearRegression)
	sigma := try(ml.MomentsFromCovar(cont, o.Covar(cont))).(*ml.Sigma)
	pca := try(s.TrainPCA(2)).(*PCAResult)
	comps, eigs, err := ml.PCA(sigma, 2, 0, pcaSeed)
	km := try(s.KMeansSeeds(3)).(*KMeansSeeding)
	bkm := try(ml.KMeansSeeds(sigma, 3)).([][]float64)
	if err := errors.Join(append(errs, err)...); err != nil {
		return err
	}
	err = errors.Join(near("linreg", lin.model.Theta, blin.model.Theta), scored(lin), near("pca eigenvalues", pca.Eigenvalues, eigs),
		near("pca components", slices.Concat(pca.Components...), slices.Concat(comps...)),
		near("kmeans seeds", slices.Concat(km.Centers...), slices.Concat(bkm...)))
	if err != nil || c.payload != PayloadPoly2 {
		return err
	}
	poly := try(s.TrainPolyReg(y, 1e-3)).(*PolyRegression)
	bpoly := try(ml.PolyRegOverJoin(try(rq.tree()).(*query.JoinTree), others, y, 1e-3, rq.opts())).(*ml.PolyReg)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return near("polyreg", poly.model.Theta, bpoly.Theta)
}

// TestServerConcurrentBitwise: four producers into one shard, readers
// training throughout, covar.
func TestServerConcurrentBitwise(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, run{shards: 1, producers: 4}, testdb.Config{}) })
}

// TestServerChurnFacade: one producer into one shard, covar; held
// epochs also equal the oracle over the prefix they cover.
func TestServerChurnFacade(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, run{shards: 1, producers: 1}, testdb.Config{}) })
}

// TestShardedFacadeMatchesPlain: four producers into 2–4 shards, covar:
// the merged read is the exact ring sum of the shards'.
func TestShardedFacadeMatchesPlain(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, run{producers: 4}, testdb.Config{}) })
}

// TestShardedFacadeChurn: one producer into 2–4 shards over a snowflake.
func TestShardedFacadeChurn(t *testing.T) {
	histories(t, run{producers: 1}, testdb.Config{Snowflake: true})
}

// TestServerReplanConcurrent: replans while four producers and the
// reader run, then a flush: the rebuilt maintainer lost and invented
// nothing.
func TestServerReplanConcurrent(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, run{shards: 1, producers: 4}, testdb.Config{Replans: true}) })
}

// TestShardedReplanConcurrent is the same on three shards of the
// cofactor payload, every shard taking the tier's root.
func TestShardedReplanConcurrent(t *testing.T) {
	histories(t, run{shards: 3, producers: 4, payload: PayloadCofactor}, testdb.Config{Replans: true})
}

// TestServerAutoReplan: with a ReplanThreshold a greedy server replans
// by itself at publication, so after every flush its drift is below the
// threshold, and a fact table outgrowing the root replans it.
func TestServerAutoReplan(t *testing.T) {
	histories(t, run{shards: 1, producers: 1, threshold: 2}, testdb.Config{Dims: 3})
	autoReplans(t, 1, "")
}

// TestReplanReenablesAutoReplan: an explicit Replan leaves a server
// whose root was pinned greedy-planned, so ReplanThreshold holds from
// then on, at one shard and three.
func TestReplanReenablesAutoReplan(t *testing.T) {
	for _, shards := range []int{1, 3} {
		histories(t, run{shards: shards, producers: 1, threshold: 2, root: "Dim0"}, testdb.Config{Replans: true})
	}
	autoReplans(t, 3, "Dim0")
}

// autoReplans loads a dimension, replans (Dim0 is the largest, so the
// root stays), then loads every fact row of the history twice over:
// every shard holding rows must replan onto Fact by itself.
func autoReplans(t *testing.T, shards int, root string) {
	h := testdb.Generate(testdb.Config{Seed: 7, Dims: 1})
	q, err := facadeDB(h).Query()
	if err != nil {
		t.Fatal(err)
	}
	q.Root = root
	srv, err := q.ServeSharded(h.Cont(), ShardOptions{ServerOptions: ServerOptions{ReplanThreshold: 2}, Shards: shards, PartitionBy: testdb.Partition})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dims, facts := h.Survivors(len(h.Steps)/3).Rows("Dim0"), 0
	for _, row := range dims {
		err = errors.Join(err, srv.Insert("Dim0", row...))
	}
	err = errors.Join(err, srv.Flush(), srv.Replan())
	for _, s := range append(h.Steps, h.Steps...) {
		if s.Kind == testdb.Insert && s.Rel == "Fact" {
			facts++
			err = errors.Join(err, srv.Insert("Fact", s.Row...))
		}
	}
	if err = errors.Join(err, srv.Flush()); err != nil || facts < 2*len(dims) {
		t.Fatalf("%v: %d Fact and %d Dim0 rows, want the fact table twice the dimension", err, facts, len(dims))
	}
	for i, st := range srv.Stats().Shards {
		if st.Inserts > 0 && (st.Root != "Fact" || st.Replans == 0 || st.Drift != 1) {
			t.Fatalf("shard %d: root %s after %d replans, drift %v; want Fact, at least 1, 1", i, st.Root, st.Replans, st.Drift)
		}
	}
}

// TestModelZooChurnToEmptyAndRegrow: the poly2 zoo at one shard and
// three, through drains to an empty join and regrowth.
func TestModelZooChurnToEmptyAndRegrow(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(map[int]string{1: "server", 3: "sharded"}[shards], func(t *testing.T) {
			histories(t, run{shards: shards, producers: 2, payload: PayloadPoly2}, testdb.Config{})
		})
	}
}

// TestCatZooChurnEquivalence: the cofactor zoo — one-hot linreg, LS-SVM,
// Chow–Liu, categorical trees and varying-coefficients polyreg — at one
// shard and three.
func TestCatZooChurnEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			histories(t, run{shards: shards, producers: 1, payload: PayloadCofactor}, testdb.Config{})
		})
	}
}
