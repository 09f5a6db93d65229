package ivm

import (
	"math"
	"testing"

	"borg/internal/exec"
	"borg/internal/testdb"
)

// stateOf snapshots a maintainer's full maintained state: count, sums,
// and the complete moment matrix, as raw float bits.
func stateOf(m Maintainer, nfeat int) []uint64 {
	out := []uint64{math.Float64bits(m.Count())}
	for i := 0; i < nfeat; i++ {
		out = append(out, math.Float64bits(m.Sum(i)))
	}
	for i := 0; i < nfeat; i++ {
		for j := 0; j < nfeat; j++ {
			out = append(out, math.Float64bits(m.Moment(i, j)))
		}
	}
	return out
}

// TestIVMStateBitIdenticalAcrossWorkers: replaying one stream through
// each strategy at Workers 1, 2, and 8 (pinned MorselSize) must leave
// byte-identical maintained states. Under -race this certifies the
// kernel scans first-order maintenance runs in parallel.
func TestIVMStateBitIdenticalAcrossWorkers(t *testing.T) {
	r, ops := historyOps(testdb.Config{Seed: 51, Steps: 250, Dims: 2, Real: true})
	j, cont := r.j, r.h.Cont()
	mks := []struct {
		name string
		mk   func() Maintainer
	}{
		{"F-IVM", func() Maintainer { m, _ := NewFIVM(j, "Fact", cont); return m }},
		{"higher-order", func() Maintainer { m, _ := NewHigherOrder(j, "Fact", cont); return m }},
		{"first-order", func() Maintainer { m, _ := NewFirstOrder(j, "Fact", cont); return m }},
	}
	type rtSetter interface{ SetRuntime(exec.Runtime) }
	for _, e := range mks {
		run := func(workers int) []uint64 {
			m := e.mk()
			m.(rtSetter).SetRuntime(exec.Runtime{Workers: workers, MorselSize: 32})
			for i := range ops {
				serialApply(m, &ops[i])
			}
			return stateOf(m, len(cont))
		}
		ref := run(1)
		for _, w := range []int{2, 8} {
			got := run(w)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: workers=%d state word %d = %x, want %x", e.name, w, i, got[i], ref[i])
				}
			}
		}
	}
}
