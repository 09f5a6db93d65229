package relation

import "iter"

// KeyTable maps uint64 keys (packed join keys, row hashes) to int32
// values by open addressing: one flat array of slots, a key's home slot
// taken from the high bits of a multiplicative (Fibonacci) hash, linear
// probing from there. Deletion shifts the rest of the probe run back
// over the freed slot instead of leaving a tombstone, so a table under
// stationary churn neither slows down nor regrows. The load stays at
// most 3/4; the zero value is an empty table.
type KeyTable struct {
	slots []ktSlot // a power of two in length, or nil
	n     int
	shift uint // 64 - log2(len(slots))
}

type ktSlot struct {
	key  uint64
	val  int32
	used bool
}

// home is k's home slot: the top bits of k times 2⁶⁴/φ.
func (t *KeyTable) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// find returns k's slot, or the empty slot that ends its probe run.
func (t *KeyTable) find(k uint64) int {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].used && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// Get returns k's value, and whether k is present.
//
//borg:noalloc
func (t *KeyTable) Get(k uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	s := &t.slots[t.find(k)]
	return s.val, s.used
}

// Set maps k to v. The table grows only for a new key that would take
// it past 3/4.
//
//borg:noalloc
func (t *KeyTable) Set(k uint64, v int32) {
	if len(t.slots) == 0 {
		t.grow()
	}
	i := t.find(k)
	if !t.slots[i].used {
		if 4*(t.n+1) > 3*len(t.slots) {
			t.grow()
			i = t.find(k)
		}
		t.slots[i].key, t.slots[i].used = k, true
		t.n++
	}
	t.slots[i].val = v
}

// grow doubles the table (to 8 slots from empty) and reinserts every key.
//
//go:noinline
func (t *KeyTable) grow() {
	old := t.slots
	t.slots = make([]ktSlot, max(8, 2*len(old)))
	t.shift = 64
	for m := len(t.slots); m > 1; m >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if s.used {
			t.slots[t.find(s.key)] = s
		}
	}
}

// Delete removes k, reporting whether it was present.
//
//borg:noalloc
func (t *KeyTable) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	i := t.find(k)
	if !t.slots[i].used {
		return false
	}
	// Backward shift: an entry further along the run moves into the hole
	// unless the hole lies before its home, where a probe would not look.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = ktSlot{}
	t.n--
	return true
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return t.n }

// All iterates the table's keys and values in slot order.
func (t *KeyTable) All() iter.Seq2[uint64, int32] {
	return func(yield func(uint64, int32) bool) {
		for _, s := range t.slots {
			if s.used && !yield(s.key, s.val) {
				return
			}
		}
	}
}
