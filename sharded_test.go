package borg

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// shardedSchema is the multi-tenant variant of serverSchema: the tenant
// key "store" appears in EVERY relation, which is what hash-partitioned
// sharding requires (equi-join partners agree on it, so they co-locate).
func shardedSchema(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	db.AddRelation("Sales", Cat("store"), Cat("item"), Num("units"))
	db.AddRelation("Catalog", Cat("store"), Cat("item"), Num("price"))
	db.AddRelation("Stores", Cat("store"), Num("area"))
	return db
}

// shardedStream generates a deterministic multi-tenant insert stream
// with INTEGER feature values (exact float sums, so any producer
// interleaving and shard count give identical bits).
func shardedStream(nSales, nStores, nItems int) []serverTuple {
	var out []serverTuple
	for s := 0; s < nStores; s++ {
		for i := 0; i < nItems; i++ {
			out = append(out, serverTuple{"Catalog", []any{
				fmt.Sprintf("store%d", s), fmt.Sprintf("item%d", i), 1 + (s*5+i*7)%9,
			}})
		}
	}
	for s := 0; s < nStores; s++ {
		out = append(out, serverTuple{"Stores", []any{fmt.Sprintf("store%d", s), 10 * (1 + (s*3)%20)}})
	}
	state := uint64(0xD1B54A32D192ED03)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for r := 0; r < nSales; r++ {
		out = append(out, serverTuple{"Sales", []any{
			fmt.Sprintf("store%d", next(nStores)),
			fmt.Sprintf("item%d", next(nItems+2)), // some sales never find a catalog row
			next(12),
		}})
	}
	for i := len(out) - 1; i > 0; i-- {
		j := next(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestShardedFacadeMatchesPlain is the facade-level scale-out
// certificate: K concurrent producers stream the same tuples into a
// 3-shard ShardedServer and a one-shard one; the merged statistics, the
// per-shard stats aggregation, and the trained model must agree with
// the unsharded run bitwise (integer data).
func TestShardedFacadeMatchesPlain(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testShardedFacadeMatchesPlain)
}

func testShardedFacadeMatchesPlain(t *testing.T) {
	const writers = 4
	features := []string{"units", "price", "area"}
	stream := shardedStream(300, 8, 4)

	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := q.ServeSharded(features, ShardOptions{
		ServerOptions: ServerOptions{BatchSize: 13},
		Shards:        3,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if sharded.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", sharded.NumShards())
	}
	plain, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{BatchSize: 13}})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += writers {
				if err := sharded.Insert(stream[i].rel, stream[i].values...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sharded.Flush(); err != nil {
		t.Fatal(err)
	}
	if q := sharded.QueueLen(); q != 0 {
		t.Fatalf("QueueLen = %d after Flush, want 0", q)
	}
	for _, tp := range stream {
		if err := plain.Insert(tp.rel, tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Flush(); err != nil {
		t.Fatal(err)
	}

	// Merged statistics equal the unsharded server's, bitwise.
	if got, want := sharded.Count(), plain.Count(); got != want {
		t.Fatalf("count: sharded %v, plain %v", got, want)
	}
	for _, f := range features {
		gm, err := sharded.Mean(f)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := plain.Mean(f)
		if err != nil {
			t.Fatal(err)
		}
		if gm != pm {
			t.Fatalf("mean(%s): sharded %v, plain %v", f, gm, pm)
		}
		for _, g := range features {
			gq, err := sharded.SecondMoment(f, g)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := plain.SecondMoment(f, g)
			if err != nil {
				t.Fatal(err)
			}
			if gq != pq {
				t.Fatalf("moment(%s,%s): sharded %v, plain %v", f, g, gq, pq)
			}
		}
	}

	// Stats aggregate across shards and stay mutually consistent:
	// the per-shard rows sum to the aggregate, and the aggregate
	// matches the snapshot totals.
	st := sharded.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("Stats reports %d shard rows, want 3", len(st.Shards))
	}
	var sumIns, sumDel, sumEpoch uint64
	var sumCount float64
	populated := 0
	for _, row := range st.Shards {
		sumIns += row.Inserts
		sumDel += row.Deletes
		sumEpoch += row.Epoch
		sumCount += row.Count
		if row.Inserts > 0 {
			populated++
		}
	}
	if sumIns != st.Inserts || sumDel != st.Deletes || sumEpoch != st.Epoch || sumCount != st.Count {
		t.Fatalf("per-shard rows (%d, %d, %d, %v) do not sum to the aggregate (%d, %d, %d, %v)",
			sumIns, sumDel, sumEpoch, sumCount, st.Inserts, st.Deletes, st.Epoch, st.Count)
	}
	if populated < 2 {
		t.Fatalf("only %d of 3 shards received tuples; router is not partitioning", populated)
	}
	if st.Inserts != uint64(len(stream)) {
		t.Fatalf("aggregate covers %d inserts, want %d", st.Inserts, len(stream))
	}
	snap := sharded.CovarSnapshot()
	if snap.Epoch() != st.Epoch || snap.Inserts() != st.Inserts {
		t.Fatalf("CovarSnapshot (%d, %d) disagrees with Stats (%d, %d)",
			snap.Epoch(), snap.Inserts(), st.Epoch, st.Inserts)
	}

	// The trained model is the unsharded model: ring-merged
	// sufficient statistics are exactly the batch statistics.
	gotModel, err := sharded.TrainLinReg("units", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	wantModel, err := plain.TrainLinReg("units", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotModel.Intercept()-wantModel.Intercept()) > 1e-9 {
		t.Fatalf("intercept: sharded %v, plain %v", gotModel.Intercept(), wantModel.Intercept())
	}
	for _, f := range []string{"price", "area"} {
		gc, err := gotModel.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := wantModel.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gc-wc) > 1e-9 {
			t.Fatalf("coefficient(%s): sharded %v, plain %v", f, gc, wc)
		}
	}
}

// TestShardedFacadeChurn exercises deletes and updates through the
// sharded facade: per-producer FIFO keeps retractions behind their
// inserts on the routed shard, and the final merged state matches a
// plain server fed the same ops.
func TestShardedFacadeChurn(t *testing.T) {
	features := []string{"units", "price", "area"}
	stream := shardedStream(120, 6, 4)

	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := q.ServeSharded(features, ShardOptions{
		ServerOptions: ServerOptions{BatchSize: 7},
		Shards:        3,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	plain, err := q.ServeSharded(features, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	apply := func(do func(rel string, values ...any) error, upd func(rel string, old, new []any) error) {
		t.Helper()
		for i, tp := range stream {
			if err := do(tp.rel, tp.values...); err != nil {
				t.Fatal(err)
			}
			if tp.rel == "Sales" && i%5 == 0 {
				// A correction that keeps the partition key: bump units.
				nu := append([]any(nil), tp.values...)
				nu[2] = tp.values[2].(int) + 1
				if err := upd(tp.rel, tp.values, nu); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	apply(sharded.Insert, sharded.Update)
	apply(plain.Insert, plain.Update)
	// Expire a handful of Stores rows on both sides.
	deleted := 0
	for _, tp := range stream {
		if tp.rel == "Stores" && deleted < 3 {
			if err := sharded.Delete(tp.rel, tp.values...); err != nil {
				t.Fatal(err)
			}
			if err := plain.Delete(tp.rel, tp.values...); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	if err := sharded.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Flush(); err != nil {
		t.Fatal(err)
	}
	if sharded.Err() != nil || plain.Err() != nil {
		t.Fatalf("maintenance errors: sharded %v, plain %v", sharded.Err(), plain.Err())
	}
	if got, want := sharded.Count(), plain.Count(); got != want {
		t.Fatalf("count after churn: sharded %v, plain %v", got, want)
	}
	st := sharded.Stats()
	if st.Deletes == 0 {
		t.Fatal("no deletes were applied")
	}
	for _, f := range features {
		gm, _ := sharded.Mean(f)
		pm, _ := plain.Mean(f)
		if gm != pm {
			t.Fatalf("mean(%s) after churn: sharded %v, plain %v", f, gm, pm)
		}
	}
}

// TestServeShardedValidation: construction-time errors at the facade —
// a partition attribute missing from one relation names both; multiple
// shards require a partition attribute.
func TestServeShardedValidation(t *testing.T) {
	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	features := []string{"units", "price", "area"}

	// "item" is not in Stores.
	_, err = q.ServeSharded(features, ShardOptions{Shards: 2, PartitionBy: "item"})
	if err == nil {
		t.Fatal("partition attribute missing from Stores accepted")
	}
	if !strings.Contains(err.Error(), `"item"`) || !strings.Contains(err.Error(), "Stores") {
		t.Fatalf("error %q does not name the attribute and the offending relation", err)
	}
	if _, err := q.ServeSharded(features, ShardOptions{Shards: 4}); err == nil {
		t.Fatal("multiple shards without PartitionBy accepted")
	}

	// The zero ShardOptions value is a plain single-shard server.
	srv, err := q.ServeSharded(features, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.NumShards() != 1 {
		t.Fatalf("NumShards = %d for zero options, want 1", srv.NumShards())
	}
	if err := srv.Insert("Sales", "store0", "item0", 3); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// snapSink keeps facade snapshot reads observable under AllocsPerRun.
var snapSink *ServerSnapshot

// TestCovarSnapshotAllocs pins the facade read: one ServerSnapshot around
// the tier's own snapshot, at one shard and at two.
func TestCovarSnapshotAllocs(t *testing.T) {
	q, err := shardedSchema(t).Query()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{Shards: shards, PartitionBy: "store"})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.CovarSnapshot() // fold once; steady state starts here
		if a := testing.AllocsPerRun(100, func() { snapSink = srv.CovarSnapshot() }); a != 1 {
			t.Errorf("%d shards: CovarSnapshot allocates %.1f, want 1", shards, a)
		}
	}
}
