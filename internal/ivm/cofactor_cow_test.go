package ivm

import (
	"math"
	"slices"
	"testing"

	"borg/internal/exec"
	"borg/internal/ring"
	"borg/internal/xrand"
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
// contract of the structurally shared cofactor element: a snapshot held
// from epoch k stays bitwise what it was — and bitwise equal to a
// recompute over epoch k's survivors (integer data, so exact) — while
// the maintainer applies 300 further batches that touch, kill and
// re-create every one of its groups. A reader loops over the held
// element the whole time: under -race, one in-place write to a shared
// group fails the test even if the bits happen to survive.
func TestCofactorSnapshotImmutableUnderChurn(t *testing.T) {
	_, j := intStar()
	feats := append(slices.Clone(intStarFeatures), "k0", "k1")
	mk := func() *FIVM {
		m, err := NewFIVM(j, "Fact", feats, WithPayload(PayloadCofactor))
		if err != nil {
			t.Fatal(err)
		}
		m.SetRuntime(exec.Runtime{Workers: 2, MorselSize: 4})
		return m
	}
	m := mk()
	src := xrand.New(91)
	var live []Tuple
	// step applies one 16-op batch: inserts of fresh random tuples with
	// probability pIns in 8, else deletes of tuples live before it.
	step := func(pIns int) {
		var ops []Op
		born := len(live)
		for len(ops) < 16 {
			if born > 0 && src.Intn(8) >= pIns {
				i := src.Intn(born)
				ops = append(ops, Op{Kind: OpDelete, Tuple: live[i]})
				born--
				live[i], live[born] = live[born], live[i]
				live = slices.Delete(live, born, born+1)
			} else if pIns > 0 {
				live = append(live, randomTuple(src))
				ops = append(ops, Op{Kind: OpInsert, Tuple: live[len(live)-1]})
			} else {
				break
			}
		}
		if res := m.ApplyBatch(ops); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for i := 0; i < 60; i++ {
		step(6)
		m.SnapshotCofactor() // every batch is an epoch, as under serve
	}

	held := m.SnapshotCofactor()
	want := cofactorBits(ring.CofactorRing{N: held.N, K: held.K}.Clone(held))
	survivors := slices.Clone(live)
	if held.NumGroups() < 20 {
		t.Fatalf("only %d groups live at the held epoch", held.NumGroups())
	}

	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		sum := 0.0
		for {
			select {
			case <-stop:
				done <- sum
				return
			default:
				held.Each(func(_ []int32, g *ring.Covar) { sum += g.Count + g.Sum[0] + g.Q[0] })
			}
		}
	}()
	batches, emptied := 0, false
	for _, phase := range []struct{ n, pIns int }{{100, 4}, {1 << 30, 0}, {120, 7}} {
		for i := 0; i < phase.n && (phase.pIns > 0 || len(live) > 0); i++ {
			step(phase.pIns)
			emptied = emptied || m.SnapshotCofactor().NumGroups() == 0
			batches++
		}
	}
	close(stop)
	<-done
	if !emptied || batches < 200 || m.SnapshotCofactor().NumGroups() < 20 {
		t.Fatalf("churn too weak: %d batches, emptied %v, %d groups at the end", batches, emptied, m.SnapshotCofactor().NumGroups())
	}

	if got := cofactorBits(held); !slices.Equal(got, want) {
		t.Fatal("held snapshot changed under later batches")
	}
	re := mk()
	for _, tu := range survivors {
		if err := re.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if got := cofactorBits(re.SnapshotCofactor()); !slices.Equal(got, want) {
		t.Fatal("held snapshot differs from a recompute over its epoch's survivors")
	}
}
