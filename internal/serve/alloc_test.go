package serve

import (
	"testing"

	"borg/internal/ivm"
)

// readSink keeps timed snapshot reads observable so the compiler cannot
// eliminate them under AllocsPerRun.
var readSink float64

// TestSnapshotReadZeroAlloc certifies the reader hot path: with the
// writer quiescent, a snapshot load plus statistics reads (including
// the lifted payload) allocates nothing.
func TestSnapshotReadZeroAlloc(t *testing.T) {
	j, stream, feats := salesSchema(5, 300, 8, 4)
	srv, err := New(j, "Sales", feats, Config{Payload: ivm.PayloadPoly2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		s := srv.Snapshot()
		readSink += s.Count() + s.Sum(0) + s.Moment(0, 0) + s.Lifted.Count()
	}); a != 0 {
		t.Fatalf("snapshot read allocates %.1f/op, want 0", a)
	}
}

// TestPublicationAllocsBounded pins the arena publication cost: one
// epoch's snapshot — covariance triple, lifted payload, and all float
// backing — must come from a constant two allocations (the arena struct
// and one shared backing slice), independent of how much state the
// maintainer holds. The writer is stopped first so the maintainer can
// be read from the test goroutine.
func TestPublicationAllocsBounded(t *testing.T) {
	j, stream, feats := salesSchema(7, 300, 8, 4)
	srv, err := New(j, "Sales", feats, Config{Payload: ivm.PayloadPoly2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		readSink += srv.buildSnapshot(1, 2, 3).Count()
	}); a > 2 {
		t.Fatalf("epoch publication allocates %.1f/op, want at most 2 (arena + backing)", a)
	}
}

// TestBurstAllocsBounded pins what one k-op burst costs on the whole
// ingest path — copy-in, take, ApplyBatch, free, publish, with metrics
// on: the epoch arena's two objects, whatever k. The ops allocate
// nothing in the queue (each is copied into a slot allocated with the
// server) nor in the maintainer in steady state: its row locator and
// edge indexes are chains headed in key tables, which stop growing once
// the live set has reached its size. Nothing is paid per call: no
// groups, closures or pool tasks (7 objects for a 1-op batch when
// ApplyBatch built them afresh). The writer is stopped first and the
// queue reopened, so the test goroutine plays producer and writer; bursts
// alternate between inserting and retracting the same tuples, so the
// state they run against is steady.
func TestBurstAllocsBounded(t *testing.T) {
	j, stream, feats := salesSchema(13, 400, 8, 4)
	srv, err := New(j, "Sales", feats, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sales []ivm.Tuple
	for _, tu := range stream {
		if tu.Rel == "Sales" {
			sales = append(sales, tu)
		}
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.q.closed = false
	for _, k := range []int{1, 8, 25} {
		retract := true
		burst := func() {
			for _, tu := range sales[:k] {
				send := srv.Insert
				if retract {
					send = srv.Delete
				}
				if err := send(tu); err != nil {
					t.Fatal(err)
				}
			}
			for srv.q.n > 0 { // a run stops at the end of the array
				srv.work()
			}
			retract = !retract
		}
		for i := 0; i < 20; i++ {
			burst()
		}
		epoch := srv.epoch
		a := testing.AllocsPerRun(99, burst) // an even number of bursts with its warm-up call: all k tuples live again
		t.Logf("%d-op burst: %.2f allocs", k, a)
		if a > 2 {
			t.Errorf("%d-op burst allocates %.2f, want at most 2 (arena + backing)", k, a)
		}
		if srv.epoch != epoch+100 || srv.pending != 0 || srv.QueueLen() != 0 || srv.Err() != nil {
			t.Fatalf("%d-op bursts: epoch %d → %d, pending %d, queued %d, err %v", k, epoch, srv.epoch, srv.pending, srv.QueueLen(), srv.Err())
		}
	}
}
