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

// TestPublicationAllocsBounded pins the publication cost on the writer's
// path: an epoch no reader pinned is reused once superseded, so in
// steady state a publication — covariance triple, lifted payload and
// all float backing — allocates nothing, however much state the
// maintainer holds; when a reader pins every epoch, none is reused and
// each costs a constant two objects (the Snapshot and one shared
// backing). The writer is stopped first so the test goroutine plays it.
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
	for _, pinned := range []bool{false, true} {
		want := 0.0
		if pinned {
			want = 2
		}
		if a := testing.AllocsPerRun(100, func() {
			srv.forcePublish()
			if pinned {
				readSink += srv.Snapshot().Count()
			}
		}); a > want {
			t.Fatalf("epoch publication (pinned %v) allocates %.1f/op, want at most %v", pinned, a, want)
		}
	}
}

// TestBurstAllocsBounded pins what one k-op burst costs on the whole
// ingest path — copy-in, take, ApplyBatch, free, publish, with metrics
// on: nothing, whatever k, while no reader holds an epoch, and the
// epoch's two objects when a reader pins every one. The ops allocate
// nothing in the queue (each is copied into a slot allocated with the
// server) nor in the maintainer in steady state: its row locator and
// edge indexes are chains headed in key tables, which stop growing once
// the live set has reached its size. Nothing is paid per call: no
// groups, closures or pool tasks (7 objects for a 1-op batch when
// ApplyBatch built them afresh), and an unread epoch is reused once
// superseded. The writer is stopped first and the queue reopened, so
// the test goroutine plays producer and writer; bursts alternate
// between inserting and retracting the same tuples, so the state they
// run against is steady.
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
	for _, pinned := range []bool{false, true} {
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
				if pinned {
					readSink += srv.Snapshot().Count()
				}
				retract = !retract
			}
			for i := 0; i < 20; i++ {
				burst()
			}
			epoch := srv.epoch
			a := testing.AllocsPerRun(99, burst) // an even number of bursts with its warm-up call: all k tuples live again
			t.Logf("%d-op burst, pinned %v: %.2f allocs", k, pinned, a)
			want := 2.0 // the Snapshot and its backing
			if !pinned {
				want = 0
			}
			if a > want {
				t.Errorf("%d-op burst (pinned %v) allocates %.2f, want at most %v", k, pinned, a, want)
			}
			if srv.epoch != epoch+100 || srv.pending != 0 || srv.QueueLen() != 0 || srv.Err() != nil {
				t.Fatalf("%d-op bursts: epoch %d → %d, pending %d, queued %d, err %v", k, epoch, srv.epoch, srv.pending, srv.QueueLen(), srv.Err())
			}
		}
	}
}
