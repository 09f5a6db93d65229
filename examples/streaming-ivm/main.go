// Streaming maintenance as a service: borg.ShardedServer keeps the covariance
// matrix of a feature-extraction join fresh under live inserts,
// corrections (updates), and expirations (deletes) with F-IVM
// (Section 5.2, Figure 4 right) while serving snapshot-consistent
// statistics — and freshly trained models — to concurrent readers.
// Ops flow through a batching queue applied by one writer goroutine;
// every read is one atomic snapshot load that never blocks the writer.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"borg"
)

func main() {
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))

	q, err := db.Query()
	if err != nil {
		log.Fatal(err)
	}
	// The zero ShardOptions run one shard: a plain server, maintaining its
	// payload with F-IVM's one ring-valued view hierarchy.
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, borg.ShardOptions{ServerOptions: borg.ServerOptions{
		BatchSize: 32, // under backlog, snapshots amortize over 32 ops
		// The lifted degree-2 ring also maintains degree-≤4 moments, which
		// is what degree-2 polynomial regression trains from.
		Payload: borg.PayloadPoly2,
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Dimension tuples may arrive before or after the facts referencing
	// them; F-IVM credits waiting facts retroactively.
	must(srv.Insert("Sales", "patty", "s1", 3)) // no partners yet
	must(srv.Insert("Items", "patty", 6.0))
	must(srv.Insert("Stores", "s1", 120.0))

	// Many clients can stream concurrently: the server's ingest queue is
	// a multi-producer channel applied by a single writer goroutine.
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				must(srv.Insert("Sales", "patty", "s1", c+i))
			}
		}(c)
	}
	wg.Wait()
	must(srv.Insert("Items", "bun", 2.0))
	must(srv.Insert("Sales", "bun", "s1", 10))

	// Corrections and expirations are first-class: an Update retracts
	// the old tuple and inserts its replacement back to back (no
	// snapshot ever shows neither or both), and a Delete retracts one
	// equal-valued tuple — the F-IVM views shrink by propagating the
	// same ring element negated.
	must(srv.Update("Sales",
		[]any{"bun", "s1", 10},  // the mis-keyed original ...
		[]any{"bun", "s1", 12})) // ... corrected to 12 units
	must(srv.Delete("Sales", "patty", "s1", 3)) // expired: retracted by value

	// Flush is a write barrier: everything enqueued above is now applied
	// and published.
	must(srv.Flush())
	st := srv.Stats()
	fmt.Printf("after churn: %d inserts, %d deletes applied, queue empty=%v\n",
		st.Inserts, st.Deletes, st.Queued == 0)

	// CovarSnapshot freezes one epoch: every read below observes the
	// same consistent state, while new inserts could keep streaming.
	snap := srv.CovarSnapshot()
	meanPrice, _ := snap.Mean("price")
	upMoment, _ := snap.SecondMoment("units", "price")
	fmt.Printf("epoch %d: count=%v  mean(price)=%.2f  SUM(units·price)=%.1f\n",
		snap.Epoch(), snap.Count(), meanPrice, upMoment)

	// A model trains on the frozen snapshot's statistics alone — no data
	// access, no interruption of the write path.
	model, err := snap.TrainLinReg("units", 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	coefPrice, _ := model.Coefficient("price")
	fmt.Printf("fresh model at epoch %d: units ~ %.3f + %.3f*price + ...\n",
		snap.Epoch(), model.Intercept(), coefPrice)

	// The same frozen epoch trains the whole model zoo — one aggregate
	// batch, many models. PCA consumes the covariance triple alone:
	pca, err := snap.TrainPCA(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PCA at epoch %d: top eigenvalue %.2f, axis ~ [%.2f %.2f %.2f]\n",
		pca.Epoch, pca.Eigenvalues[0],
		pca.Components[0][0], pca.Components[0][1], pca.Components[0][2])

	// Degree-2 polynomial regression needs moments beyond the covariance
	// ring; the lifted degree-2 ring (PayloadPoly2 above) maintains them
	// incrementally through the same propagation machinery.
	poly, err := snap.TrainPolyReg("units", 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	pp, _ := poly.PairCoefficient("price", "price")
	fmt.Printf("polyreg at epoch %d: units ~ %.3f + ... + %.4f*price² + ...\n",
		poly.Epoch, poly.Intercept(), pp)

	// Rk-means-style seeding: cluster seeds from the ring statistics.
	seeds, err := snap.KMeansSeeds(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-means seeds at epoch %d: %d centers around the mean %v\n",
		seeds.Epoch, len(seeds.Centers), seeds.Centers[0])

	// A join churned to EMPTY trains nothing: the typed error is the
	// contract (no NaN models, ever).
	if _, err := emptySnapshotDemo(q); err != nil {
		log.Fatal(err)
	}

	fmt.Println("every insert updated ONE ring-valued view hierarchy —")
	fmt.Println("all covariance and degree-4 aggregates were maintained simultaneously")

	categorical()
	sharded()
}

// categorical is the mixed continuous/categorical step: with the
// cofactor payload the server maintains the covariance statistics PER
// GROUP of categorical values — the sufficient statistics of one-hot
// regression, Chow–Liu dependency trees, categorical decision trees,
// and LS-SVMs — and the whole zoo trains from live epochs.
func categorical() {
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		log.Fatal(err)
	}
	// Categorical features ("item", "store") join the feature list; they
	// require the cofactor payload, and construction says so if asked
	// without it.
	srv, err := q.ServeSharded([]string{"units", "price", "area", "item", "store"},
		borg.ShardOptions{ServerOptions: borg.ServerOptions{Payload: borg.PayloadCofactor}})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	for s := 0; s < 2; s++ {
		store := fmt.Sprintf("s%d", s+1)
		must(srv.Insert("Stores", store, 100.0+float64(40*s)))
		for i, item := range []string{"patty", "bun", "onion"} {
			must(srv.Insert("Items", item, 2.0+float64(2*i)))
			for n := 0; n < 3; n++ {
				must(srv.Insert("Sales", item, store, 2+i+2*s+n))
			}
		}
	}
	must(srv.Flush())

	// One-hot ridge regression: the categorical groups become indicator
	// blocks assembled from the cofactor maps — no design matrix is ever
	// materialized. Prediction takes values AND category strings.
	lr, err := srv.TrainLinRegGD("units", 1e-2, borg.GDOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pred, err := lr.PredictCat(
		map[string]float64{"price": 4, "area": 120},
		map[string]string{"item": "bun", "store": "s1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncategorical zoo at epoch %d: one-hot units(bun@s1) ~ %.2f\n",
		srv.CovarSnapshot().Epoch(), pred)

	// Chow–Liu reads pairwise co-occurrence counts off the group keys.
	edges, err := srv.TrainChowLiu()
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range edges {
		fmt.Printf("dependency tree: %s — %s (MI %.3f)\n", e.A, e.B, e.MI)
	}

	// A categorical regression tree scores every split from the
	// group-restricted (count, sum, sum²) triples of ONE snapshot.
	tree, err := srv.TrainCTree("units", borg.TreeOptions{MaxDepth: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ctree: %d nodes, depth %d — trained from map lookups, no data pass\n",
		tree.Nodes(), tree.Depth())

	// LS-SVM on the same one-hot moments; Classify returns ±1.
	svm, err := srv.TrainSVM("units", 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	class, err := svm.Classify(
		map[string]float64{"price": 4, "area": 120},
		map[string]string{"item": "bun", "store": "s1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ls-svm: class(bun@s1) = %+.0f\n", class)

	// A kind whose payload the server does not maintain refuses with the
	// typed ErrPayloadNotMaintained — 409 on the HTTP surface, never a
	// silently wrong model.
	plain, err := q.ServeSharded([]string{"units", "price", "area"}, borg.ShardOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.TrainChowLiu(); errors.Is(err, borg.ErrPayloadNotMaintained) {
		fmt.Println("covar-payload server: TrainChowLiu correctly refused (ErrPayloadNotMaintained)")
	} else {
		log.Fatal("expected ErrPayloadNotMaintained from a covar-payload server")
	}
}

// emptySnapshotDemo shows the degenerate-snapshot contract: every
// trainer on an empty join returns borg.ErrEmptySnapshot.
func emptySnapshotDemo(q *borg.Query) (string, error) {
	empty, err := q.ServeSharded([]string{"units", "price", "area"}, borg.ShardOptions{})
	if err != nil {
		return "", err
	}
	defer empty.Close()
	if _, err := empty.TrainPCA(2); errors.Is(err, borg.ErrEmptySnapshot) {
		fmt.Println("empty join: TrainPCA correctly refused with ErrEmptySnapshot")
		return "ok", nil
	}
	return "", fmt.Errorf("expected ErrEmptySnapshot on an empty join")
}

// sharded is the horizontally scaled variant: the same server with N
// hash-partitioned shards instead of one. The covariance statistics live in a
// commutative ring, so per-shard triples merge EXACTLY under ring
// addition — the merged model equals the unsharded one. The one schema
// requirement: the partition attribute ("store" here) must appear in
// every relation of the join, so equi-join partners co-locate.
func sharded() {
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("store"), borg.Cat("item"), borg.Num("units"))
	db.AddRelation("Catalog", borg.Cat("store"), borg.Cat("item"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))

	q, err := db.Query()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, borg.ShardOptions{
		ServerOptions: borg.ServerOptions{BatchSize: 16},
		Shards:        3,       // three independent single-writer serving stacks
		PartitionBy:   "store", // tuples route by hash(store)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// One producer per tenant: each store's dimension and fact tuples
	// hash to one shard, so ingest parallelism scales with the shard
	// count while every shard keeps single-writer simplicity.
	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			store := fmt.Sprintf("store%d", s)
			must(srv.Insert("Stores", store, 100.0+float64(10*s)))
			for i := 0; i < 4; i++ {
				item := fmt.Sprintf("item%d", i)
				must(srv.Insert("Catalog", store, item, 2.0+float64(i)))
				must(srv.Insert("Sales", store, item, 3+s+i))
			}
		}(s)
	}
	wg.Wait()

	// Flush is now a two-phase GLOBAL barrier: all shard barriers
	// enqueue concurrently, then all acknowledgments are collected.
	must(srv.Flush())
	st := srv.Stats()
	fmt.Printf("\nsharded (%d shards by store): count=%v, %d inserts, queue empty=%v\n",
		srv.NumShards(), st.Count, st.Inserts, st.Queued == 0)
	for _, row := range st.Shards {
		fmt.Printf("  shard carries count=%v (epoch %d)\n", row.Count, row.Epoch)
	}

	// A merged read folds the per-shard snapshots with ring addition;
	// training sees exactly the statistics an unsharded server would.
	shardModel, err := srv.TrainLinReg("units", 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	coefPrice, _ := shardModel.Coefficient("price")
	fmt.Printf("merged model: units ~ %.3f + %.3f*price + ... (trained on ring-merged stats)\n",
		shardModel.Intercept(), coefPrice)
}
