package shard

import (
	"fmt"
	"testing"

	"borg/internal/ivm"
	"borg/internal/ring"
	"borg/internal/serve"
	"borg/internal/testdb"
)

// replay runs a history of the testdb harness through a three-shard
// Server partitioned on the history's partition attribute and holds
// every flush's merged snapshot to the oracle: the tallies, the triple,
// and under PayloadPoly2 the merged lifted element — bitwise on dyadic
// data, to 1e-9 on real data. The facade driver (history_test.go at the
// repository root) runs the same histories at 1–4 shards with readers,
// held epochs and model checks.
func replay(h *testdb.History, payload ivm.Payload) error {
	db, j := h.Database()
	feats := h.Cont()
	srv, err := New(j, "Fact", feats, Config{
		Config:      serve.Config{BatchSize: 1 + int(h.Config.Seed%17), QueueDepth: 8, Payload: payload},
		Shards:      3,
		PartitionBy: testdb.Partition,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	tuple := func(rel string, row []any) ivm.Tuple { return ivm.Tuple{Rel: rel, Values: testdb.Values(db, rel, row)} }
	return h.Replay(func(ops []testdb.Step) error {
		for _, s := range ops {
			var err error
			switch s.Kind {
			case testdb.Insert:
				err = srv.Insert(tuple(s.Rel, s.Row))
			case testdb.Delete:
				err = srv.Delete(tuple(s.Rel, s.Row))
			default:
				err = srv.Update(tuple(s.Rel, s.Row), tuple(s.Rel, s.New))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, func(i int) error {
		switch h.Steps[i].Kind {
		case testdb.Replan:
			return srv.Replan()
		case testdb.Flush:
			if err := srv.Flush(); err != nil {
				return err
			}
			snap, o, exact := srv.Snapshot(), h.Survivors(i), !h.Config.Real
			if ins, del := h.Tallies(i); snap.Inserts != ins || snap.Deletes != del || srv.QueueLen() != 0 {
				return fmt.Errorf("after step %d: tallies %d/%d with %d queued, the history applied %d/%d", i, snap.Inserts, snap.Deletes, srv.QueueLen(), ins, del)
			}
			err := testdb.CompareCovar(snap.Stats(), o.Covar(feats), exact)
			if err == nil && payload == ivm.PayloadPoly2 {
				err = testdb.ComparePoly2(snap.Lifted, o.Poly2(ring.NewPoly2Ring(len(feats)), feats), exact)
			}
			if err != nil {
				return fmt.Errorf("after step %d: %w", i, err)
			}
		}
		return nil
	})
}

func histories(t *testing.T, cfg testdb.Config, payload ivm.Payload) {
	n := 2
	if testing.Short() {
		n = 1
	}
	if err := testdb.Run(t.Name(), n, cfg, func(h *testdb.History) error { return replay(h, payload) }); err != nil {
		t.Fatal(err)
	}
}

// TestShardedChurnEquivalence: four producers and replans into three
// shards: the merged snapshot is the exact ring sum of the parts, the
// oracle's after every flush.
func TestShardedChurnEquivalence(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, testdb.Config{Producers: 4, Replans: true}, ivm.PayloadCovar) })
}

// TestLiftedMergeMatchesSingleShard: the degree-4 half of the merge
// algebra — the shards' lifted elements fold into the oracle's moments.
func TestLiftedMergeMatchesSingleShard(t *testing.T) {
	histories(t, testdb.Config{Producers: 2, Dims: 1}, ivm.PayloadPoly2)
}
