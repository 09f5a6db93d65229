package shard

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"borg/internal/ivm"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
	"borg/internal/serve"
	"borg/internal/xrand"
)

// tenantSchema builds the multi-tenant three-relation star the sharding
// tier requires — the tenant key "store" appears in EVERY relation — with
// INTEGER-valued continuous attributes and a deterministic shuffled tuple
// stream. Integer values keep every maintained sum and product exactly
// representable, so final statistics are bitwise identical regardless of
// producer interleaving or shard count.
func tenantSchema(seed uint64, nSales, nStores, nItems int) (*query.Join, []ivm.Tuple, []string) {
	db := relation.NewDatabase()
	sales := db.NewRelation("Sales", []relation.Attribute{
		{Name: "store", Type: relation.Category},
		{Name: "item", Type: relation.Category},
		{Name: "units", Type: relation.Double},
	})
	catalog := db.NewRelation("Catalog", []relation.Attribute{
		{Name: "store", Type: relation.Category},
		{Name: "item", Type: relation.Category},
		{Name: "price", Type: relation.Double},
	})
	stores := db.NewRelation("Stores", []relation.Attribute{
		{Name: "store", Type: relation.Category},
		{Name: "area", Type: relation.Double},
	})
	src := xrand.New(seed)
	var stream []ivm.Tuple
	for s := 0; s < nStores; s++ {
		for i := 0; i < nItems; i++ {
			stream = append(stream, ivm.Tuple{Rel: "Catalog", Values: []relation.Value{
				relation.CatVal(int32(s)), relation.CatVal(int32(i)), relation.FloatVal(float64(1 + src.Intn(9))),
			}})
		}
	}
	for s := 0; s < nStores; s++ {
		stream = append(stream, ivm.Tuple{Rel: "Stores", Values: []relation.Value{
			relation.CatVal(int32(s)), relation.FloatVal(float64(10 * (1 + src.Intn(20)))),
		}})
	}
	for r := 0; r < nSales; r++ {
		stream = append(stream, ivm.Tuple{Rel: "Sales", Values: []relation.Value{
			relation.CatVal(int32(src.Intn(nStores))),
			relation.CatVal(int32(src.Intn(nItems + 2))), // some dangling items
			relation.FloatVal(float64(src.Intn(12))),
		}})
	}
	src.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return query.NewJoin(sales, catalog, stores), stream, []string{"units", "price", "area"}
}

// TestPartitionValidation: the partition attribute is validated against
// every relation at construction, and the error names both the
// attribute and the offending relation — never a silent mis-route.
func TestPartitionValidation(t *testing.T) {
	j, _, features := tenantSchema(5, 20, 4, 3)

	// "item" is missing from Stores.
	_, err := New(j, "Sales", features, Config{Shards: 2, PartitionBy: "item"})
	if err == nil {
		t.Fatal("partition attribute missing from Stores was accepted")
	}
	if !strings.Contains(err.Error(), `"item"`) || !strings.Contains(err.Error(), "Stores") {
		t.Fatalf("error %q does not name the attribute and the offending relation", err)
	}

	// Multiple shards without a partition attribute cannot route.
	if _, err := New(j, "Sales", features, Config{Shards: 2}); err == nil {
		t.Fatal("2 shards without PartitionBy accepted")
	}

	// A single shard needs no partition attribute...
	srv, err := New(j, "Sales", features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.NumShards() != 1 {
		t.Fatalf("default shards = %d, want 1", srv.NumShards())
	}
	srv.Close()

	// ...but a given one is still validated.
	if _, err := New(j, "Sales", features, Config{Shards: 1, PartitionBy: "nope"}); err == nil {
		t.Fatal("bogus partition attribute accepted on 1 shard")
	}
}

// TestSingleShardFastPath: Shards=1 devolves to the plain server — a
// read hands back the shard's own immutable snapshot (pointer-identical,
// no ring fold, no copy, no wrapper).
func TestSingleShardFastPath(t *testing.T) {
	j, stream, features := tenantSchema(11, 50, 4, 3)
	srv, err := New(j, "Sales", features, Config{Config: serve.Config{BatchSize: 8}, Shards: 1, PartitionBy: "store"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tp := range stream {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.Snapshot() != srv.shards[0].Snapshot() {
		t.Fatal("single-shard read wraps or copies the shard's snapshot; want the shard's own (zero merge overhead)")
	}
}

// TestPartitionKeyUpdateRejected: an update that changes the
// partition-attribute VALUE is rejected deterministically — whether the
// two values hash to different shards, collide on one shard, or the
// server has a single shard — so client update streams behave the same
// at every shard count. Updates that keep the key stay legal.
func TestPartitionKeyUpdateRejected(t *testing.T) {
	j, _, features := tenantSchema(13, 10, 8, 3)
	srv, err := New(j, "Sales", features, Config{Shards: 4, PartitionBy: "store"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mk := func(store int32) ivm.Tuple {
		return ivm.Tuple{Rel: "Sales", Values: []relation.Value{
			relation.CatVal(store), relation.CatVal(0), relation.FloatVal(1),
		}}
	}
	// By pigeonhole over 8 store codes and 4 shards, code 0 has both a
	// code on another shard and (possibly) one colliding with its own;
	// the rule must not care either way.
	a := mk(0)
	sa, err := srv.shardOf(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert(a); err != nil {
		t.Fatal(err)
	}
	crossChecked := false
	for c := int32(1); c < 8; c++ {
		b := mk(c)
		sb, err := srv.shardOf(b)
		if err != nil {
			t.Fatal(err)
		}
		err = srv.Update(a, b)
		if err == nil {
			t.Fatalf("key-changing update store0->store%d accepted (shards %d -> %d)", c, sa, sb)
		}
		if !strings.Contains(err.Error(), "partition attribute") {
			t.Fatalf("error %q does not explain the partition conflict", err)
		}
		if sb != sa {
			crossChecked = true
		}
	}
	if !crossChecked {
		t.Fatal("all 8 store codes hashed to one shard; cross-shard case never exercised")
	}
	// Key-preserving updates stay legal.
	a2 := ivm.Tuple{Rel: "Sales", Values: []relation.Value{
		relation.CatVal(0), relation.CatVal(1), relation.FloatVal(2),
	}}
	if err := srv.Update(a, a2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}

	// The rule is value-based, so it holds on a single partitioned shard
	// too — scaling Shards up later cannot start rejecting an update
	// stream that worked at Shards=1.
	one, err := New(j, "Sales", features, Config{Shards: 1, PartitionBy: "store"})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if err := one.Insert(a); err != nil {
		t.Fatal(err)
	}
	if err := one.Update(a, mk(1)); err == nil {
		t.Fatal("key-changing update accepted on a single partitioned shard")
	}
	if err := one.Update(a, a2); err != nil {
		t.Fatal(err)
	}
	if err := one.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedQueueLenInvariant: the aggregate QueueLen includes every
// shard's in-flight batch, sampled while producers run: reading the
// number of accepted ops, THEN QueueLen, THEN the merged snapshot must
// always find Inserts+Deletes ≥ accepted − queueLen (per shard an op
// leaves the count only after an epoch covering it is published, and
// the merge loads every shard's epoch after the counts were read) —
// and with producers stopped, QueueLen()==0 certifies a merged view of
// every accepted op. The PR-3 invariant, preserved across the merge.
func TestShardedQueueLenInvariant(t *testing.T) {
	j, stream, features := tenantSchema(17, 1500, 6, 4)
	srv, err := New(j, "Sales", features, Config{
		Config:      serve.Config{BatchSize: 16, QueueDepth: 32},
		Shards:      3,
		PartitionBy: "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const producers = 3
	var sent atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(stream); i += producers {
				if err := srv.Insert(stream[i]); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
				if i%3 == 0 {
					if err := srv.Delete(stream[i]); err != nil {
						t.Error(err)
						return
					}
					sent.Add(1)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for sample, running := 0, true; running; sample++ {
		select {
		case <-done:
			running = false
		default:
		}
		accepted := sent.Load()
		queued := int64(srv.QueueLen())
		m := srv.Snapshot()
		if covered := int64(m.Inserts + m.Deletes); covered < accepted-queued {
			t.Fatalf("sample %d: merged snapshot covers %d ops with %d accepted and QueueLen %d", sample, covered, accepted, queued)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.QueueLen() != 0; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("QueueLen stuck at %d with producers stopped", srv.QueueLen())
		}
	}
	n := uint64(sent.Load())
	if m := srv.Snapshot(); m.Inserts+m.Deletes != n {
		t.Fatalf("QueueLen is 0 but the merged snapshot covers %d of %d ops", m.Inserts+m.Deletes, n)
	}
	if err := srv.Err(); err != nil {
		t.Fatal(err)
	}
	// Per-shard stats rows sum to the aggregate the merge reports.
	var sumOps uint64
	var sumQ int
	for _, st := range srv.Stats() {
		sumOps += st.Inserts + st.Deletes
		sumQ += st.Queued
	}
	if sumOps != n || sumQ != 0 {
		t.Fatalf("per-shard stats sum to %d ops / %d queued, want %d / 0", sumOps, sumQ, n)
	}
}

// TestShardedErrAndCloseIdempotent: a maintenance failure on any shard
// surfaces through the aggregate Err and Flush; Close is idempotent and
// keeps returning the same result.
func TestShardedErrAndCloseIdempotent(t *testing.T) {
	j, stream, features := tenantSchema(19, 10, 4, 3)
	srv, err := New(j, "Sales", features, Config{Shards: 2, PartitionBy: "store"})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting a tuple that was never inserted is an asynchronous
	// maintenance failure on whichever shard it routes to.
	if err := srv.Delete(stream[0]); err != nil {
		t.Fatalf("shape-valid delete rejected synchronously: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err never surfaced the failed delete")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Flush(); err == nil {
		t.Fatal("Flush did not surface the failed delete")
	}
	first := srv.Close()
	if first == nil {
		t.Fatal("Close did not surface the failed delete")
	}
	if again := srv.Close(); again != first {
		t.Fatalf("second Close returned %v, want the first result %v", again, first)
	}
	// A closed sharded server rejects new ops on every shard.
	if err := srv.Insert(stream[1]); err == nil {
		t.Fatal("insert accepted after Close")
	}
}

// TestCofactorMergeCopiesShardGroups checks the cofactor half of the
// merge algebra: the merged element of a 3-shard server equals what a
// single shard maintains over the same stream (bitwise on integer data),
// and — store being both the partitioning attribute and a categorical
// slot, so every group lives on one shard — each of its groups reads
// bitwise as that shard's published group, block included.
func TestCofactorMergeCopiesShardGroups(t *testing.T) {
	j, stream, features := tenantSchema(23, 400, 6, 5)
	features = append(features, "store", "item")
	cfg := func(shards int) Config {
		return Config{
			Config:      serve.Config{BatchSize: 16, Payload: ivm.PayloadCofactor},
			Shards:      shards,
			PartitionBy: "store",
		}
	}
	sharded, err := New(j, "Sales", features, cfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	single, err := New(j, "Sales", features, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, tu := range stream {
		if err := sharded.Insert(tu); err != nil {
			t.Fatal(err)
		}
		if err := single.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := sharded.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}
	ms, m1 := sharded.Snapshot(), single.Snapshot()
	if ms.Cofactor().NumGroups() < 20 || !ms.Cofactor().ApproxEqual(m1.Cofactor(), 0) {
		t.Fatalf("merged cofactor (%d groups) differs from single shard (%d groups)", ms.Cofactor().NumGroups(), m1.Cofactor().NumGroups())
	}
	var marginal ring.Covar
	if ms.Cofactor().MarginalInto(&marginal); !marginal.ApproxEqual(ms.Stats(), 0) {
		t.Fatal("merged cofactor marginal differs from merged triple")
	}
	ms.Cofactor().Each(func(codes []int32, g *ring.Covar) {
		holders := 0
		for _, sh := range sharded.shards {
			if sg := sh.Snapshot().Cofactor().Group(codes); sg != nil {
				holders++
				if !slices.Equal(covarBits(sg), covarBits(g)) || sg.Lo != g.Lo || len(sg.Sum) != len(g.Sum) {
					t.Errorf("merged group %v reads %v, its shard's %v", codes, g, sg)
				}
			}
		}
		if holders != 1 {
			t.Errorf("merged group %v lives on %d shards, want 1", codes, holders)
		}
	})
}
