package serve

import (
	"fmt"
	"testing"

	"borg/internal/ivm"
	"borg/internal/ring"
	"borg/internal/testdb"
)

// replay runs a history of the testdb harness through a Server of the
// given payload at the tuple level and holds every flush to the oracle:
// the tallies, the triple, and under PayloadPoly2 the lifted element —
// bitwise on dyadic data, to 1e-9 on real data. The facade driver
// (history_test.go at the repository root) runs the same histories
// through every tier with readers, held epochs and model checks.
func replay(h *testdb.History, payload ivm.Payload) error {
	db, j := h.Database()
	feats := h.Cont()
	srv, err := New(j, "Fact", feats, Config{BatchSize: 1 + int(h.Config.Seed%17), QueueDepth: 8, Payload: payload})
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

// TestServerMatchesSerialReplay: four producers, dyadic values and
// replans: every flush's snapshot is the oracle's, bit for bit.
func TestServerMatchesSerialReplay(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, testdb.Config{Producers: 4, Replans: true}, ivm.PayloadCovar) })
}

// TestServerChurnMatchesSerialReplay: the same on real values, to 1e-9.
func TestServerChurnMatchesSerialReplay(t *testing.T) {
	t.Run("fivm", func(t *testing.T) { histories(t, testdb.Config{Producers: 4, Real: true}, ivm.PayloadCovar) })
}

// TestLiftedSnapshotPublished: a poly2 server publishes a lifted element
// on every epoch — the initial empty one a zero element — equal to the
// oracle's degree-≤4 moments after every flush; a covar server publishes
// none.
func TestLiftedSnapshotPublished(t *testing.T) {
	t.Run("fivm", func(t *testing.T) {
		h := testdb.Generate(testdb.Config{Seed: 31})
		_, j := h.Database()
		for _, p := range []ivm.Payload{ivm.PayloadCovar, ivm.PayloadPoly2} {
			srv, err := New(j, "Fact", h.Cont(), Config{Payload: p})
			if err != nil {
				t.Fatal(err)
			}
			if l := srv.Snapshot().Lifted; (l != nil) != (p == ivm.PayloadPoly2) || l != nil && !l.IsZero() {
				t.Fatalf("%s: initial lifted element %v", p, l)
			}
			srv.Close()
		}
		histories(t, testdb.Config{Dims: 1}, ivm.PayloadPoly2)
	})
}
