package ivm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"borg/internal/exec"
	"borg/internal/ring"
	"borg/internal/testdb"
)

// cofactorBits flattens an element into its group codes and raw float
// bits, in Each order.
func cofactorBits(e *ring.Cofactor) []uint64 {
	var out []uint64
	e.Each(func(codes []int32, g *ring.Covar) {
		for _, c := range codes {
			out = append(out, uint64(uint32(c)))
		}
		out = append(out, math.Float64bits(g.Count))
		for _, v := range g.Sum {
			out = append(out, math.Float64bits(v))
		}
		for _, v := range g.Q {
			out = append(out, math.Float64bits(v))
		}
	})
	return out
}

// TestCofactorSnapshotImmutableUnderChurn certifies the publication
// contract of the structurally shared cofactor element: every epoch of a
// history (one per batch) is held while the maintainer applies the rest,
// which touch, kill and re-create its groups and drain the join to
// empty; at the end each held element is bitwise what it was and the
// oracle's over its prefix. A reader loops over the held elements the
// whole time: under -race, one in-place write to a shared group fails
// the test even if the bits happen to survive.
func TestCofactorSnapshotImmutableUnderChurn(t *testing.T) {
	forHistories(t, testdb.Config{Dims: 2}, func(h *testdb.History) error {
		r := newReplay(h)
		m, err := NewFIVM(r.j, "Fact", r.features(PayloadCofactor), WithPayload(PayloadCofactor))
		if err != nil {
			return err
		}
		m.SetRuntime(exec.Runtime{Workers: 2, MorselSize: 4})
		held := make(chan *ring.Cofactor, len(r.batches))
		done := make(chan struct{})
		go func() {
			defer close(done)
			var all []*ring.Cofactor
			for e := range held {
				all = append(all, e)
				for _, e := range all {
					e.Each(func([]int32, *ring.Covar) {})
				}
			}
		}()
		var elems []*ring.Cofactor
		var bits [][]uint64
		for _, ops := range r.batches {
			m.ApplyBatch(ops)
			e := m.SnapshotCofactor()
			elems, bits = append(elems, e), append(bits, cofactorBits(e))
			held <- e
		}
		close(held)
		<-done
		name := func(slot int, code int32) string { return r.db.Dict(m.catFeats[slot]).Name(code) }
		for i, e := range elems {
			if !slices.Equal(cofactorBits(e), bits[i]) {
				return fmt.Errorf("epoch %d changed under later batches", i)
			}
			if err := testdb.CompareCofactor(e, name, h.Survivors(r.ends[i]).Cofactor(m.contFeats, m.catFeats), true); err != nil {
				return fmt.Errorf("epoch %d: %w", i, err)
			}
		}
		return nil
	})
}
