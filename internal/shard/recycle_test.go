package shard

import (
	"math"
	"slices"
	"sync"
	"testing"

	"borg/internal/ivm"
	"borg/internal/obs"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/serve"
)

// cofactorBits flattens a cofactor element into its group codes and each
// group's block and raw float bits, in key order.
func cofactorBits(c *ring.Cofactor) []uint64 {
	var out []uint64
	c.Each(func(codes []int32, g *ring.Covar) {
		for _, x := range codes {
			out = append(out, uint64(x))
		}
		out = append(out, uint64(g.Lo), uint64(len(g.Sum)), math.Float64bits(g.Count))
		for _, v := range append(slices.Clone(g.Sum), g.Q...) {
			out = append(out, math.Float64bits(v))
		}
	})
	return out
}

// covarBits flattens a covariance triple into raw float bits.
func covarBits(c *ring.Covar) []uint64 {
	out := []uint64{math.Float64bits(c.Count)}
	for _, v := range append(slices.Clone(c.Sum), c.Q...) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestHeldEpochSurvivesRecycling holds cofactor epochs while the writers
// reuse every epoch nobody reads, and their log windows and bases, across
// at least ten folds per shard, at 1 and 2 shards. One held epoch is
// materialized when it is taken and must read bitwise the same at the
// end, element and triple; another is left unmaterialized until the end
// and must then equal a fresh server fed the ops it covers (integer
// data, so bitwise whatever the batching). Meanwhile a reader checks
// that every epoch it pins has an element whose marginal is bitwise its
// triple.
func TestHeldEpochSurvivesRecycling(t *testing.T) {
	for _, shards := range []int{1, 2} {
		j, stream, features := tenantSchema(31, 300, 6, 5)
		features = append(features, "store", "item")
		reg := obs.NewRegistry()
		newServer := func(reg *obs.Registry) *Server {
			srv, err := New(j, "Sales", features, Config{
				Config:      serve.Config{BatchSize: 16, Payload: ivm.PayloadCofactor, Obs: reg},
				Shards:      shards,
				PartitionBy: "store",
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv
		}
		srv := newServer(reg)
		send := func(ops []ivm.Op) {
			for _, o := range ops {
				var err error
				if o.Kind == ivm.OpDelete {
					err = srv.Delete(o.Tuple)
				} else {
					err = srv.Insert(o.Tuple)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		var applied []ivm.Op
		for _, tu := range stream {
			applied = append(applied, ivm.Op{Tuple: tu})
		}
		send(applied)
		// churn inserts n joining sales and retracts them again; each op
		// is one root delta on its shard.
		churn := func(seed, n int) []ivm.Op {
			var ops []ivm.Op
			for i := 0; i < n; i++ {
				s, it := (seed+i)%6, (seed*7+i)%5
				ops = append(ops, ivm.Op{Tuple: ivm.Tuple{Rel: "Sales", Values: []relation.Value{
					relation.CatVal(int32(s)), relation.CatVal(int32(it)), relation.FloatVal(float64(1 + (seed+i)%11)),
				}}})
			}
			for i := range ops[:n] {
				if i%3 != 0 {
					ops = append(ops, ivm.Op{Kind: ivm.OpDelete, Tuple: ops[i].Tuple})
				}
			}
			return ops
		}
		hot := srv.Snapshot()
		hotElem, hotBits, hotStats := hot.Cofactor(), cofactorBits(hot.Cofactor()), covarBits(hot.Stats())
		more := churn(1, 300)
		send(more)
		applied = append(applied, more...)
		cold := srv.Snapshot()
		coldOps := len(applied)

		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := srv.Snapshot()
				var marg ring.Covar
				sn.Cofactor().MarginalInto(&marg)
				if !slices.Equal(covarBits(&marg), covarBits(sn.Stats())) {
					t.Errorf("%d shards, epoch %d: element marginal %v, triple %v", shards, sn.Epoch, &marg, sn.Stats())
					return
				}
			}
		}()
		before := srv.Stats()
		for round := 0; round < 12; round++ {
			ops := churn(round+2, 600)
			send(ops)
			applied = append(applied, ops...)
		}
		close(done)
		wg.Wait()
		for i, st := range srv.Stats() {
			// 10 folds at the 256-delta floor of the fold threshold, which
			// the ~30 live groups here stay under.
			if ops := st.Inserts + st.Deletes - before[i].Inserts - before[i].Deletes; ops < 11*256 {
				t.Fatalf("%d shards: shard %d applied %d churn ops, too few for 10 folds", shards, i, ops)
			}
		}
		recycled := 0.0
		for _, p := range reg.Snapshot() {
			if p.Name == "borg_serve_epochs_recycled_total" {
				recycled += p.Value
			}
		}
		if recycled < 100 {
			t.Fatalf("%d shards: %v epochs recycled, want the writers reusing unread ones", shards, recycled)
		}

		if got := hot.Cofactor(); got != hotElem || !slices.Equal(cofactorBits(got), hotBits) {
			t.Fatalf("%d shards: held epoch %d's element changed under recycling", shards, hot.Epoch)
		}
		if !slices.Equal(covarBits(hot.Stats()), hotStats) {
			t.Fatalf("%d shards: held epoch %d's triple changed under recycling", shards, hot.Epoch)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		twin := newServer(nil)
		srv = twin
		send(applied[:coldOps])
		want := twin.Snapshot()
		if !slices.Equal(cofactorBits(cold.Cofactor()), cofactorBits(want.Cofactor())) ||
			!slices.Equal(covarBits(cold.Stats()), covarBits(want.Stats())) {
			t.Fatalf("%d shards: epoch %d held unread through recycling reads %v, want %v", shards, cold.Epoch, cold.Cofactor(), want.Cofactor())
		}
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
