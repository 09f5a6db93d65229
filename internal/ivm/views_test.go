package ivm

import (
	"slices"
	"testing"

	"borg/internal/ring"
)

// views iterates a tree's views by node (range vt.views), each as a
// map of its elements: a covar slab's records are copied out.
func (vt *viewTree[E]) views(yield func(*node, map[uint64]E) bool) {
	for i, v := range vt.view {
		m := make(map[uint64]E)
		switch v := any(v).(type) {
		case *mapViews[E]:
			m = v.m
		case *covarSlab:
			//borg:nondeterministic-ok — copies each record alone
			for key := range v.slot.All() {
				e, _ := v.get(key)
				m[key] = any(e.Clone()).(E)
			}
		}
		if !yield(vt.nodes[i], m) {
			return
		}
	}
}

// FuzzCovarViewSlab drives a covar view slab through random merge
// sequences against the map of cloned elements it replaced: a birth
// clones the delta, a merge adds it in place, and an entry that drains
// to the exact identity is deleted. Keys take 4 values, so entries drain
// and are reborn constantly — a program step may retract an entry
// exactly, or cancel only its count. After every step get must find
// exactly the oracle's keys, bitwise the oracle's entries, and every
// record must be either live or free, never more than the 4 keys need:
// a reborn record is a drained one reused, and carries nothing of its
// past.
func FuzzCovarViewSlab(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 3, 5, 250, 7, 1, 1, 0, 0, 1, 2, 3, 4, 5, 6, 1, 1, 0, 2, 9, 9, 9, 9})
	f.Add(uint8(0), []byte{0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0})
	f.Add(uint8(3), []byte{0, 3, 8, 7, 6, 5, 4, 3, 2, 1, 2, 3, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 1, 3})
	f.Fuzz(func(t *testing.T, width uint8, prog []byte) {
		k := int(width % 4)
		r := ring.CovarRing{N: k}
		slab := &covarSlab{k: k, hdr: ring.Covar{N: k}}
		oracle := make(map[uint64]*ring.Covar)
		next := func() float64 {
			if len(prog) == 0 {
				return 0
			}
			v := float64(int8(prog[0])) / 8
			prog = prog[1:]
			return v
		}
		d := r.Zero()
		for step := 0; len(prog) >= 2; step++ {
			op, key := prog[0]%3, uint64(prog[1]%4)
			prog = prog[2:]
			cur, live := oracle[key]
			if op == 1 && live { // retract the entry exactly
				r.NegInto(d, cur)
			} else { // an arbitrary delta, zero included
				d.Count = float64(int(next()*8) % 3)
				if op == 2 && live { // cancel the count only
					d.Count = -cur.Count
				}
				for i := range d.Sum {
					d.Sum[i] = next()
				}
				for i := range d.Q {
					d.Q[i] = next()
				}
			}
			slab.merge(key, d)
			if live {
				cur.AddInPlace(d)
				if cur.IsZero() {
					delete(oracle, key)
				}
			} else if !d.IsZero() {
				oracle[key] = d.Clone()
			}

			for key := uint64(0); key < 4; key++ {
				e, ok := slab.get(key)
				if want := oracle[key]; ok != (want != nil) || ok && !slices.Equal(covarBits(e), covarBits(want)) {
					t.Fatalf("step %d, key %d: slab %v (held %v), oracle %v", step, key, e, ok, want)
				}
			}
			records := len(slab.recs) / (1 + k + k*k)
			if slab.slot.Len()+len(slab.free) != records || records > 4 {
				t.Fatalf("step %d: %d records, %d live and %d free", step, records, slab.slot.Len(), len(slab.free))
			}
		}
	})
}
