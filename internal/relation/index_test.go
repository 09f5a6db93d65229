package relation

import (
	"fmt"
	"slices"
	"testing"

	"borg/internal/xrand"
)

// chain lists k's row ids in chain order, nil if none.
func chain(ix *Index, k uint64) []int32 {
	var ids []int32
	for id := ix.First(k); id >= 0; id = ix.Next(id) {
		ids = append(ids, id)
	}
	return ids
}

// TestIndexAgainstModel drives seeded random Insert/Remove/Repoint
// histories against a naive map-of-sets model. Ids arrive out of order,
// freed ids come back under other keys, absent ids and keys are removed
// and repointed; after every step each touched key's Rows equals the
// model as a multiset, Len counts exactly the non-empty keys, and no
// empty bucket is retained.
func TestIndexAgainstModel(t *testing.T) {
	const keys, ids = 7, 96
	for seed := uint64(1); seed <= 20; seed++ {
		src := xrand.New(seed)
		ix := &Index{}
		model := make(map[uint64]map[int32]struct{})
		keyOf := make(map[int32]uint64) // id → the key holding it
		var held []int32
		check := func(step int, op string) {
			t.Helper()
			if ix.Len() != len(model) {
				t.Fatalf("seed %d step %d %s: Len = %d, model has %d non-empty keys", seed, step, op, ix.Len(), len(model))
			}
			for k := uint64(0); k < keys+1; k++ {
				got := chain(ix, k)
				slices.Sort(got)
				var want []int32
				for id := range model[k] {
					want = append(want, id)
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: Rows(%d) = %v, want %v", seed, step, op, k, got, want)
				}
				if _, ok := ix.head.Get(k); ok && len(got) == 0 {
					t.Fatalf("seed %d step %d %s: empty bucket retained for key %d", seed, step, op, k)
				}
			}
		}
		insert := func(k uint64, id int32) {
			ix.Insert(k, id)
			if model[k] == nil {
				model[k] = make(map[int32]struct{})
			}
			model[k][id] = struct{}{}
			keyOf[id] = k
			held = append(held, id)
		}
		drop := func(id int32) {
			k := keyOf[id]
			delete(model[k], id)
			if len(model[k]) == 0 {
				delete(model, k)
			}
			delete(keyOf, id)
			held = slices.Delete(held, slices.Index(held, id), slices.Index(held, id)+1)
		}
		freeID := func() int32 {
			for {
				if id := int32(src.Intn(ids)); !slices.Contains(held, id) {
					return id
				}
			}
		}
		for step := 0; step < 600; step++ {
			var op string
			switch u := src.Intn(10); {
			case len(held) == 0 || (u < 4 && len(held) < ids/2):
				k, id := uint64(src.Intn(keys)), freeID()
				op = fmt.Sprintf("Insert(%d, %d)", k, id)
				insert(k, id)
			case u < 7:
				id := held[src.Intn(len(held))]
				k := keyOf[id]
				op = fmt.Sprintf("Remove(%d, %d)", k, id)
				if !ix.Remove(k, id) {
					t.Fatalf("seed %d step %d %s reported missing", seed, step, op)
				}
				drop(id)
			case u < 8:
				// Absent entries: a free id, a held id under the wrong key,
				// a key no id was ever held under.
				id := held[src.Intn(len(held))]
				op = "Remove/Repoint of absent entries"
				if ix.Remove(uint64(src.Intn(keys)), freeID()) || ix.Remove(keyOf[id]+1, id) || ix.Remove(keys, id) ||
					ix.Repoint(keyOf[id]+1, id, freeID()) || ix.Repoint(keyOf[id], freeID(), freeID()) {
					t.Fatalf("seed %d step %d: %s reported success", seed, step, op)
				}
			default:
				from, to := held[src.Intn(len(held))], freeID()
				k := keyOf[from]
				op = fmt.Sprintf("Repoint(%d, %d, %d)", k, from, to)
				at := slices.Index(chain(ix, k), from)
				if !ix.Repoint(k, from, to) {
					t.Fatalf("seed %d step %d %s reported missing", seed, step, op)
				}
				if chain(ix, k)[at] != to {
					t.Fatalf("seed %d step %d %s moved the entry within its bucket", seed, step, op)
				}
				delete(model[k], from)
				model[k][to] = struct{}{}
				delete(keyOf, from)
				keyOf[to] = k
				held[slices.Index(held, from)] = to
			}
			check(step, op)
		}
	}
}

// BenchmarkIndexRemove removes and re-inserts a random id of one bucket;
// the cost must not depend on the bucket's size.
func BenchmarkIndexRemove(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("bucket=%d", n), func(b *testing.B) {
			ix := &Index{}
			for id := 0; id < n; id++ {
				ix.Insert(1, int32(id))
			}
			src := xrand.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := int32(src.Intn(n))
				if !ix.Remove(1, id) {
					b.Fatal("live id reported missing")
				}
				ix.Insert(1, id)
			}
		})
	}
}

// FuzzRowLocator drives an Index keyed by row hash, as F-IVM's row
// locator, through the operations ivm's base puts it through — append,
// delete by value (locate, then swap-delete) and swap-delete by row id —
// against a naive multiset of the live values. Hashes take 4 values over
// 16 row values, so chains hold collisions and long runs of duplicates.
// After every step each chain must link consistently, hold only rows of
// its hash, and cover every live row exactly once, and a value must be
// locatable exactly when the multiset holds it.
func FuzzRowLocator(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 5, 1, 1, 2, 0, 1, 5, 2, 1})
	f.Add([]byte{0, 3, 0, 7, 0, 11, 0, 15, 1, 7, 2, 0, 1, 3, 1, 15})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var l Index
		var vals []byte // live rows by id, as the relation holds them
		count := make(map[byte]int)
		hash := func(v byte) uint64 { return uint64(v % 4) }
		swapDelete := func(id int32) {
			last := int32(len(vals) - 1)
			count[vals[id]]--
			l.Remove(hash(vals[id]), id)
			if id != last {
				l.Repoint(hash(vals[last]), last, id)
			}
			vals[id] = vals[last]
			vals = vals[:last]
		}
		locate := func(v byte) int32 {
			id := l.First(hash(v))
			for id >= 0 && vals[id] != v {
				id = l.Next(id)
			}
			return id
		}
		for len(prog) >= 2 {
			op, arg := prog[0]%3, prog[1]
			prog = prog[2:]
			switch op {
			case 0: // append
				v := arg % 16
				vals = append(vals, v)
				count[v]++
				l.Insert(hash(v), int32(len(vals)-1))
			case 1: // delete by value
				if id := locate(arg % 16); id >= 0 {
					swapDelete(id)
				}
			case 2: // swap-delete by id
				if len(vals) > 0 {
					swapDelete(int32(int(arg) % len(vals)))
				}
			}

			if len(l.ents) != len(vals) {
				t.Fatalf("%d links for %d rows", len(l.ents), len(vals))
			}
			seen := make([]bool, len(vals))
			for h := range uint64(4) {
				prev := int32(-1)
				for id := l.First(h); id >= 0; prev, id = id, l.Next(id) {
					if seen[id] || hash(vals[id]) != h || l.ents[id].prev != prev {
						t.Fatalf("chain %d: row %d (seen %v, value %d, prev %d, want %d)", h, id, seen[id], vals[id], l.ents[id].prev, prev)
					}
					seen[id] = true
				}
			}
			if i := slices.Index(seen, false); i >= 0 {
				t.Fatalf("row %d is on no chain", i)
			}
			if l.Len() > 4 {
				t.Fatalf("%d chain heads for 4 hashes", l.Len())
			}
			for v := range byte(16) {
				if id := locate(v); (id >= 0) != (count[v] > 0) {
					t.Fatalf("value %d: located row %d, the oracle holds %d", v, id, count[v])
				}
			}
		}
	})
}
