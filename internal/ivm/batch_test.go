package ivm

import (
	"testing"

	"borg/internal/ring"
	"borg/internal/testdb"
)

// TestSnapshotIntoZeroAlloc certifies the arena publication hot path:
// once the destination is sized, SnapshotInto must not allocate, and
// PublishInto allocates its float backing only, for the covar and the
// poly2 payload alike.
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	r := newReplay(testdb.Generate(testdb.Config{Seed: 13, Steps: 120}))
	for _, payload := range []Payload{PayloadCovar, PayloadPoly2} {
		m, err := NewFIVM(r.j, "Fact", r.h.Cont(), WithPayload(payload))
		if err != nil {
			t.Fatal(err)
		}
		for _, ops := range r.batches {
			if m.ApplyBatch(ops); m.Count() > 0 {
				break
			}
		}
		var cov ring.Covar
		m.SnapshotInto(&cov)
		if a := testing.AllocsPerRun(100, func() { m.SnapshotInto(&cov) }); a != 0 {
			t.Errorf("%s: SnapshotInto allocates %.0f/op, want 0", payload, a)
		}
		if got, want := published(m).Lifted != nil, payload == PayloadPoly2; got != want {
			t.Fatalf("%s: published Lifted non-nil = %v, want %v", payload, got, want)
		}
		var p Published
		if a := testing.AllocsPerRun(100, func() { p = Published{}; m.PublishInto(&p) }); a != 1 {
			t.Errorf("%s: PublishInto allocates %.0f/op, want 1 (the float backing)", payload, a)
		}
	}
}
