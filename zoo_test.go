package borg

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"borg/internal/ml"
	"borg/internal/ring"
)

// zooOp is one producer-side operation of the churn phases.
type zooOp struct {
	kind int // 0 insert, 1 delete, 2 update (old → tp)
	tp   serverTuple
	old  serverTuple
}

// churnParts partitions a stream across writers and injects deletes
// (~20% of Sales rows) and updates (~10%, bumping units — never the
// partition key) into each partition, always retracting a tuple the
// SAME writer inserted earlier so per-producer FIFO finds it live.
// Returns the per-writer op streams, per-writer drain streams (deletes
// of everything that writer's partition leaves live — applying them
// empties the database), and the surviving multiset.
func churnParts(stream []serverTuple, writers int, seed uint64) (parts, drain [][]zooOp, survivors []serverTuple) {
	state := seed
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	parts = make([][]zooOp, writers)
	drain = make([][]zooOp, writers)
	live := make([][]serverTuple, writers)
	for i, tp := range stream {
		w := i % writers
		parts[w] = append(parts[w], zooOp{kind: 0, tp: tp})
		live[w] = append(live[w], tp)
		if tp.rel != "Sales" {
			continue // dimensions never churn (but do drain)
		}
		switch r := next(100); {
		case r < 20:
			j := next(len(live[w]))
			for live[w][j].rel != "Sales" {
				j = next(len(live[w]))
			}
			parts[w] = append(parts[w], zooOp{kind: 1, tp: live[w][j]})
			live[w][j] = live[w][len(live[w])-1]
			live[w] = live[w][:len(live[w])-1]
		case r < 30:
			j := next(len(live[w]))
			for live[w][j].rel != "Sales" {
				j = next(len(live[w]))
			}
			old := live[w][j]
			nu := serverTuple{rel: old.rel, values: append([]any(nil), old.values...)}
			nu.values[2] = old.values[2].(int) + 1 // corrected units
			parts[w] = append(parts[w], zooOp{kind: 2, tp: nu, old: old})
			live[w][j] = nu
		}
	}
	for w, l := range live {
		survivors = append(survivors, l...)
		for _, tp := range l {
			drain[w] = append(drain[w], zooOp{kind: 1, tp: tp})
		}
	}
	return parts, drain, survivors
}

// applyZooOp routes one churn op to the server under test.
func applyZooOp(srv *ShardedServer, op zooOp) error {
	switch op.kind {
	case 0:
		return srv.Insert(op.tp.rel, op.tp.values...)
	case 1:
		return srv.Delete(op.tp.rel, op.tp.values...)
	default:
		return srv.Update(op.tp.rel, op.old.values, op.tp.values)
	}
}

// recomputeZooCovar joins the raw multi-tenant tuples by hand — no
// engine code — into the covariance triple over [units, price, area].
// Integer inputs make every accumulation exact.
func recomputeZooCovar(stream []serverTuple) *ring.Covar {
	price := map[string]float64{} // store|item → price
	area := map[string]float64{}
	for _, tp := range stream {
		switch tp.rel {
		case "Catalog":
			price[tp.values[0].(string)+"|"+tp.values[1].(string)] = float64(tp.values[2].(int))
		case "Stores":
			area[tp.values[0].(string)] = float64(tp.values[1].(int))
		}
	}
	r := ring.CovarRing{N: 3}
	acc := r.Zero()
	for _, tp := range stream {
		if tp.rel != "Sales" {
			continue
		}
		p, okP := price[tp.values[0].(string)+"|"+tp.values[1].(string)]
		a, okA := area[tp.values[0].(string)]
		if !okP || !okA {
			continue
		}
		acc.AddInPlace(r.Lift([]int{0, 1, 2}, []float64{float64(tp.values[2].(int)), p, a}))
	}
	return acc
}

// requireEmptyContract asserts the degenerate-snapshot contract: every
// statistics read and every trainer returns ErrEmptySnapshot — typed,
// never NaN — on a snapshot with no live join tuples.
func requireEmptyContract(t *testing.T, snap *ServerSnapshot, when string) {
	t.Helper()
	if c := snap.Count(); c != 0 {
		t.Fatalf("%s: count = %v, want 0", when, c)
	}
	if _, err := snap.Mean("units"); !errors.Is(err, ErrEmptySnapshot) {
		t.Fatalf("%s: Mean = %v, want ErrEmptySnapshot", when, err)
	}
	if _, err := snap.SecondMoment("units", "price"); !errors.Is(err, ErrEmptySnapshot) {
		t.Fatalf("%s: SecondMoment = %v, want ErrEmptySnapshot", when, err)
	}
	if _, err := snap.TrainLinReg("units", 1e-3); !errors.Is(err, ErrEmptySnapshot) {
		t.Fatalf("%s: TrainLinReg = %v, want ErrEmptySnapshot", when, err)
	}
	if _, err := snap.TrainPCA(2); !errors.Is(err, ErrEmptySnapshot) {
		t.Fatalf("%s: TrainPCA = %v, want ErrEmptySnapshot", when, err)
	}
	if _, err := snap.TrainPolyReg("units", 1e-3); !errors.Is(err, ErrEmptySnapshot) {
		t.Fatalf("%s: TrainPolyReg = %v, want ErrEmptySnapshot", when, err)
	}
	if _, err := snap.KMeansSeeds(3); !errors.Is(err, ErrEmptySnapshot) {
		t.Fatalf("%s: KMeansSeeds = %v, want ErrEmptySnapshot", when, err)
	}
}

// requireZooMatchesBatch trains every model kind on the snapshot and on
// batch recomputations over the surviving tuples, demanding 1e-9
// agreement — the live-equals-batch certificate of the model zoo.
func requireZooMatchesBatch(t *testing.T, snap *ServerSnapshot, survivors []serverTuple, when string) {
	t.Helper()
	const lambda = 1e-3
	near := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("%s: %s: live %v vs batch %v", when, name, a, b)
		}
	}

	// Batch reference database over only the survivors.
	ref := shardedSchema(t)
	for _, tp := range survivors {
		if err := ref.Relation(tp.rel).Append(tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	rq, err := ref.Query()
	if err != nil {
		t.Fatal(err)
	}

	// Linear regression: snapshot statistics vs LMFAO batch.
	mSnap, err := snap.TrainLinReg("units", lambda)
	if err != nil {
		t.Fatal(err)
	}
	if !mSnap.Converged() {
		t.Fatalf("%s: snapshot linreg did not converge (%d iters)", when, mSnap.IterationsRun())
	}
	mBatch, err := rq.LinearRegression(Features{Continuous: []string{"price", "area"}}, "units", lambda)
	if err != nil {
		t.Fatal(err)
	}
	near("linreg intercept", mSnap.Intercept(), mBatch.Intercept())
	for _, f := range []string{"price", "area"} {
		a, _ := mSnap.Coefficient(f)
		b, err := mBatch.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		near("linreg coefficient "+f, a, b)
	}

	// Polynomial regression: lifted-ring statistics vs the LMFAO
	// degree-4 aggregate batch over the surviving database.
	pSnap, err := snap.TrainPolyReg("units", lambda)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := rq.tree()
	if err != nil {
		t.Fatal(err)
	}
	pBatch, err := ml.PolyRegOverJoin(jt, []string{"price", "area"}, "units", lambda, rq.opts())
	if err != nil {
		t.Fatal(err)
	}
	near("polyreg intercept", pSnap.Intercept(), pBatch.Theta[0])
	for i, f := range []string{"price", "area"} {
		c, err := pSnap.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		near("polyreg coefficient "+f, c, pBatch.Theta[1+i])
		for j, g := range []string{"price", "area"}[i:] {
			pc, err := pSnap.PairCoefficient(f, g)
			if err != nil {
				t.Fatal(err)
			}
			near(fmt.Sprintf("polyreg pair %s*%s", f, g), pc, pBatch.PairTheta(i, i+j))
		}
	}
	// Predictions agree too (the models are the same function).
	probe := map[string]float64{"price": 5, "area": 130}
	pp, err := pSnap.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	near("polyreg prediction", pp, pBatch.PredictVec([]float64{5, 130}))

	// PCA and k-means seeding: snapshot covariance vs an engine-free
	// recomputation over the survivors. Integer data means the two moment
	// matrices agree bitwise and the deterministic trainers match exactly
	// (well within 1e-9).
	batchSigma, err := ml.MomentsFromCovar([]string{"units", "price", "area"}, recomputeZooCovar(survivors))
	if err != nil {
		t.Fatal(err)
	}
	pcaSnap, err := snap.TrainPCA(2)
	if err != nil {
		t.Fatal(err)
	}
	comps, eigs, err := ml.PCA(batchSigma, 2, 0, pcaSeed)
	if err != nil {
		t.Fatal(err)
	}
	for c := range comps {
		near(fmt.Sprintf("pca eigenvalue %d", c), pcaSnap.Eigenvalues[c], eigs[c])
		for i := range comps[c] {
			near(fmt.Sprintf("pca component %d[%d]", c, i), pcaSnap.Components[c][i], comps[c][i])
		}
	}
	kmSnap, err := snap.KMeansSeeds(4)
	if err != nil {
		t.Fatal(err)
	}
	kmBatch, err := ml.KMeansSeeds(batchSigma, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(kmSnap.Centers) != len(kmBatch) {
		t.Fatalf("%s: %d seeds vs %d", when, len(kmSnap.Centers), len(kmBatch))
	}
	for c := range kmBatch {
		for i := range kmBatch[c] {
			near(fmt.Sprintf("kmeans seed %d[%d]", c, i), kmSnap.Centers[c][i], kmBatch[c][i])
		}
	}
}

// TestModelZooChurnToEmptyAndRegrow is the model zoo's race certificate
// and the degenerate-snapshot regression test in one: on a one-shard
// and a 3-shard ShardedServer, concurrent writers load a stream (while concurrent readers train every model
// kind), the zoo is checked against batch training over the survivors;
// then the writers churn the database to EMPTY (every trainer returns
// ErrEmptySnapshot — never NaN); then the database regrows with
// different data and the zoo must again match batch training to 1e-9.
func TestModelZooChurnToEmptyAndRegrow(t *testing.T) {
	const writers, readers = 3, 2
	features := []string{"units", "price", "area"}
	for _, shards := range []int{1, 3} {
		t.Run(map[int]string{1: "server", 3: "sharded"}[shards], func(t *testing.T) {
			stream := shardedStream(240, 5, 4)
			db := shardedSchema(t)
			q, err := db.Query()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := q.ServeSharded(features, ShardOptions{Shards: shards, PartitionBy: "store", ServerOptions: ServerOptions{
				BatchSize: 16,
				Payload:   PayloadPoly2,
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// Concurrent readers hammer the zoo across all phases; an
			// empty epoch's typed error is the contract, anything else
			// (a NaN model, a crash) is the bug.
			stopRead := make(chan struct{})
			var readWg sync.WaitGroup
			for r := 0; r < readers; r++ {
				readWg.Add(1)
				go func() {
					defer readWg.Done()
					for {
						select {
						case <-stopRead:
							return
						default:
						}
						snap := srv.CovarSnapshot()
						if _, err := snap.TrainLinReg("units", 1e-3); err != nil && !errors.Is(err, ErrEmptySnapshot) {
							t.Error(err)
							return
						}
						if _, err := snap.TrainPCA(2); err != nil && !errors.Is(err, ErrEmptySnapshot) {
							t.Error(err)
							return
						}
						if _, err := snap.TrainPolyReg("units", 1e-3); err != nil && !errors.Is(err, ErrEmptySnapshot) {
							t.Error(err)
							return
						}
						if _, err := snap.KMeansSeeds(3); err != nil && !errors.Is(err, ErrEmptySnapshot) {
							t.Error(err)
							return
						}
						if m, err := snap.Mean("price"); err == nil && math.IsNaN(m) {
							t.Error("Mean leaked NaN")
							return
						}
					}
				}()
			}
			defer func() {
				select {
				case <-stopRead:
				default:
					close(stopRead)
				}
				readWg.Wait()
			}()

			// runWriters fans per-writer op streams out concurrently;
			// each writer owns its partition, so deletes and updates
			// always follow the matching inserts in per-producer FIFO
			// order.
			runWriters := func(parts [][]zooOp) {
				t.Helper()
				var wg sync.WaitGroup
				for w := 0; w < len(parts); w++ {
					wg.Add(1)
					go func(part []zooOp) {
						defer wg.Done()
						for _, op := range part {
							if err := applyZooOp(srv, op); err != nil {
								t.Error(err)
								return
							}
						}
					}(parts[w])
				}
				wg.Wait()
			}

			// Phase 1: concurrent mixed insert/delete/update churn,
			// then live-equals-batch over the survivors.
			parts, drain, survivors := churnParts(stream, writers, 0xC0FFEE)
			runWriters(parts)
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			requireZooMatchesBatch(t, srv.CovarSnapshot(), survivors, "loaded")

			// Phase 2: churn to empty — every writer retracts what its
			// partition left live, concurrently. The snapshot must
			// drain to the typed empty contract, not to NaN residue.
			runWriters(drain)
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			requireEmptyContract(t, srv.CovarSnapshot(), "churned to empty")

			// Phase 3: regrow with DIFFERENT data (fresh stream shape,
			// fresh churn) and check live-equals-batch again — the
			// maintainers must behave as if freshly constructed.
			parts, _, survivors = churnParts(shardedStream(120, 4, 3), writers, 0xBEEF)
			runWriters(parts)
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			requireZooMatchesBatch(t, srv.CovarSnapshot(), survivors, "regrown")

			close(stopRead)
			readWg.Wait()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPolyRegRequiresLifted pins the configuration contract: a server
// started without PayloadPoly2 trains every covariance model but returns
// the typed ErrPayloadNotMaintained for polynomial regression.
func TestPolyRegRequiresLifted(t *testing.T) {
	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tp := range shardedStream(60, 3, 3) {
		if err := srv.Insert(tp.rel, tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := srv.CovarSnapshot()
	if snap.Payload() == PayloadPoly2 {
		t.Fatal("unlifted server reports lifted statistics")
	}
	if _, err := snap.TrainLinReg("units", 1e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.TrainPCA(2); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.TrainPolyReg("units", 1e-3); !errors.Is(err, ErrPayloadNotMaintained) {
		t.Fatalf("TrainPolyReg without PayloadPoly2: %v, want ErrPayloadNotMaintained", err)
	}
}

// TestGDOptionsSurfaceNonConvergence pins the gradient-descent knobs: a
// starved iteration budget must be reported, not silently swallowed.
func TestGDOptionsSurfaceNonConvergence(t *testing.T) {
	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tp := range shardedStream(80, 3, 3) {
		if err := srv.Insert(tp.rel, tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	starved, err := srv.TrainLinRegGD("units", 1e-3, GDOptions{MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Converged() {
		t.Fatal("2-iteration budget reported convergence")
	}
	if starved.IterationsRun() != 2 {
		t.Fatalf("IterationsRun = %d, want 2", starved.IterationsRun())
	}
	full, err := srv.TrainLinRegGD("units", 1e-3, GDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged() {
		t.Fatalf("default budget did not converge (%d iters)", full.IterationsRun())
	}
}
