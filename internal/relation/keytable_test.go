package relation

import (
	"maps"
	"slices"
	"testing"
)

// fibInverse is the inverse of KeyTable's multiplier modulo 2⁶⁴ (Newton's
// iteration doubles the correct low bits each step), so a test can build
// a key with a chosen home slot.
var fibInverse = func() uint64 {
	const m = 0x9E3779B97F4A7C15
	inv := uint64(m)
	for range 5 {
		inv *= 2 - m*inv
	}
	return inv
}()

// keyAt returns a key whose home slot in t is home, told apart from the
// other keys of that slot by salt.
func keyAt(t *KeyTable, home int, salt uint64) uint64 {
	shift := t.shift
	if len(t.slots) == 0 {
		shift = 61 // the first growth makes 8 slots
	}
	return (uint64(home)<<shift | salt&(1<<shift-1)) * fibInverse
}

// FuzzKeyTable drives a KeyTable, from its first 8 slots through growth,
// against a map oracle. Keys are built to share home slots, most of them
// in the last slots, so probe runs collide and wrap around the end of
// the array, and deletions shift them back across it. A program step
// sets a new or an existing key, deletes a present or an absent one, or
// deletes every key and sets them all again. After every step each
// oracle key must be found with its value, some absent keys must not,
// Len and the iteration must match the oracle, and the load must stay at
// most 3/4.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 7, 4, 7, 8, 7, 12, 6, 1, 7, 2, 0, 0, 7, 16, 7})
	f.Add([]byte{0, 7, 4, 6, 8, 5, 12, 4, 16, 3, 20, 2, 24, 1, 28, 0, 32, 7, 36, 6, 2, 0, 5, 1, 9, 3, 13, 2})
	f.Add([]byte{0, 255, 4, 254, 8, 253, 12, 252, 16, 251, 20, 250, 24, 249, 28, 248, 32, 247, 36, 246, 40, 245, 44, 244, 2, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var kt KeyTable
		oracle := make(map[uint64]int32)
		for step := 0; len(prog) >= 2; step++ {
			op, arg := prog[0], prog[1]
			prog = prog[2:]
			size := max(len(kt.slots), 8)
			// Most keys land in the last four slots, whose runs wrap.
			home := size - 1 - int(arg)%4
			if arg >= 128 {
				home = int(arg) % size
			}
			held := slices.Sorted(maps.Keys(oracle))
			switch op % 4 {
			case 0: // set a new key (or an existing one, if salts meet)
				k, v := keyAt(&kt, home, uint64(op>>2)), int32(step)-int32(arg)<<8
				kt.Set(k, v)
				oracle[k] = v
			case 1: // delete a present key, or an absent one
				k := keyAt(&kt, home, uint64(op>>2)+64)
				if len(held) > 0 && op&4 == 0 {
					k = held[int(arg)%len(held)]
				}
				_, want := oracle[k]
				if got := kt.Delete(k); got != want {
					t.Fatalf("step %d: Delete(%#x) = %v, want %v", step, k, got, want)
				}
				delete(oracle, k)
			case 2: // delete every key, then set them all again
				for _, k := range held {
					if !kt.Delete(k) {
						t.Fatalf("step %d: Delete(%#x) of a held key reported absent", step, k)
					}
				}
				if kt.Len() != 0 {
					t.Fatalf("step %d: Len = %d after deleting every key", step, kt.Len())
				}
				for _, k := range held {
					kt.Set(k, oracle[k])
				}
			case 3: // overwrite a held key
				if len(held) > 0 {
					k := held[int(arg)%len(held)]
					kt.Set(k, -oracle[k])
					oracle[k] = -oracle[k]
				}
			}

			if kt.Len() != len(oracle) {
				t.Fatalf("step %d: Len = %d, oracle has %d", step, kt.Len(), len(oracle))
			}
			if 4*kt.Len() > 3*len(kt.slots) {
				t.Fatalf("step %d: %d keys in %d slots", step, kt.Len(), len(kt.slots))
			}
			for k, want := range oracle {
				if got, ok := kt.Get(k); !ok || got != want {
					t.Fatalf("step %d: Get(%#x) = %d, %v, want %d", step, k, got, ok, want)
				}
			}
			for salt := range uint64(4) {
				k := keyAt(&kt, home, salt+200)
				if _, ok := kt.Get(k); ok {
					t.Fatalf("step %d: Get(%#x) found a key never set", step, k)
				}
			}
			if got := maps.Collect(kt.All()); !maps.Equal(got, oracle) {
				t.Fatalf("step %d: iteration yields %v, oracle %v", step, got, oracle)
			}
		}
	})
}

// TestKeyTableChurnKeepsSize pins that deletion leaves no tombstones and
// that only a new key grows the table: stationary churn over 96 live
// keys, exactly 3/4 of 128 slots, each new key also overwritten once,
// never regrows the table, and every live key is found.
func TestKeyTableChurnKeepsSize(t *testing.T) {
	const live = 96
	var kt KeyTable
	for k := uint64(0); k < live; k++ {
		kt.Set(k, int32(k))
	}
	if len(kt.slots) != 128 {
		t.Fatalf("%d keys in %d slots, want 128", live, len(kt.slots))
	}
	for k := uint64(live); k < 100_000; k++ {
		if !kt.Delete(k - live) {
			t.Fatalf("key %d reported absent", k-live)
		}
		kt.Set(k, -1)
		kt.Set(k, int32(k))
		if len(kt.slots) != 128 {
			t.Fatalf("after %d replacements: %d slots, want 128", k-live+1, len(kt.slots))
		}
	}
	for k := uint64(100_000 - live); k < 100_000; k++ {
		if v, ok := kt.Get(k); !ok || v != int32(k) {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}
