package shard

import (
	"testing"

	"borg/internal/ivm"
	"borg/internal/serve"
)

// readSink keeps timed merged reads observable so the compiler cannot
// eliminate them under AllocsPerRun.
var readSink float64

// TestMergedSnapshotZeroAllocSteadyState certifies the read hot path:
// on one shard a read is the shard's own snapshot, and on several, while
// no shard publishes a new epoch, repeated reads hit the memoized fold —
// pointer-compare every shard's snapshot, reuse the merged view. Neither
// allocates.
func TestMergedSnapshotZeroAllocSteadyState(t *testing.T) {
	for _, shards := range []int{1, 4} {
		j, stream, feats := tenantSchema(9, 400, 6, 5)
		srv, err := New(j, "Sales", feats, Config{
			Config:      serve.Config{Payload: ivm.PayloadPoly2},
			Shards:      shards,
			PartitionBy: "store",
		})
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
		srv.Snapshot() // fold once; steady state starts here
		if a := testing.AllocsPerRun(200, func() {
			m := srv.Snapshot()
			readSink += m.Count() + m.Sum(0) + m.Moment(0, 0)
		}); a != 0 {
			t.Fatalf("%d shards: steady-state read allocates %.1f/op, want 0", shards, a)
		}
	}
}
