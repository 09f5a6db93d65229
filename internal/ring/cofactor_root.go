package ring

import "slices"

// CofactorRoot is the F-IVM root result over the cofactor ring: an
// immutable base in key order, its groups in one slab, plus an
// append-only log of the root deltas added since, group by group in op
// order, in fixed-size chunks that never move. The writer only appends
// to the log, folding each group into a running marginal, so it never
// writes what a reader holds, and an epoch (Publish) is base plus a
// prefix of the log: O(1). Its element is materialized on demand by
// replaying the prefix over base key by key exactly as Cofactor.add
// folds the same deltas in place, so its groups are bitwise the ones
// in-place accumulation builds. Once the log holds as many deltas as
// base has groups, Add folds it into a new base — the work in-place
// accumulation does at every add, batched — and re-derives the marginal
// from that base, so its rounding drift never outlives one log window.
type CofactorRoot struct {
	r CofactorRing
	// to renames the delta groups' feature slots (Cofactor.AddMapped).
	to     []int
	base   *Cofactor
	chunks []*logChunk
	n      int // deltas logged since base was built
	marg   Covar
}

// logChunkLen is the number of delta groups per log chunk, and the
// floor of the fold threshold.
const logChunkLen = 256

// logChunk holds logChunkLen delta groups, pointer-free: their keys,
// blocks and floats, each group given an N+N² stride.
type logChunk struct {
	keys   []uint64
	meta   []struct{ lo, k int32 }
	counts []float64
	floats []float64
}

// NewCofactorRoot returns an empty root whose delta groups' slots are
// renamed by to (nil: none).
func NewCofactorRoot(r CofactorRing, to []int) *CofactorRoot {
	root := &CofactorRoot{r: r, to: to, base: r.Zero(), marg: *r.covar().Zero()}
	root.base.shared = true
	return root
}

// Add logs every group of delta and folds it into the marginal, then
// folds the log into a new base once it is as long as the base.
//
//borg:noalloc
func (r *CofactorRoot) Add(delta *Cofactor) {
	w, stride := keyWords(r.r.K), r.r.N+r.r.N*r.r.N
	for j, g := range delta.vals {
		c, i := r.n/logChunkLen, r.n%logChunkLen
		if c == len(r.chunks) {
			r.grow()
		}
		ch, k := r.chunks[c], len(g.Sum)
		copy(ch.keys[i*w:(i+1)*w], delta.key(j))
		ch.meta[i].lo, ch.meta[i].k, ch.counts[i] = int32(g.Lo), int32(k), g.Count
		copy(ch.floats[i*stride:], g.Sum)
		copy(ch.floats[i*stride+k:], g.Q)
		r.marg.AddMapped(g, r.to)
		r.n++
	}
	if r.n >= max(len(r.base.vals), logChunkLen) {
		r.fold()
	}
}

// grow appends a log chunk. Not inlined, so that its allocations are not
// charged to Add.
//
//go:noinline
func (r *CofactorRoot) grow() {
	r.chunks = append(r.chunks, &logChunk{keys: make([]uint64, logChunkLen*keyWords(r.r.K)),
		meta: make([]struct{ lo, k int32 }, logChunkLen), counts: make([]float64, logChunkLen),
		floats: make([]float64, logChunkLen*(r.r.N+r.r.N*r.r.N))})
}

// fold makes the whole log the new base and starts an empty log;
// published epochs keep the chunks they reach.
//
//go:noinline
func (r *CofactorRoot) fold() {
	r.base = r.Publish().replay(true)
	r.chunks, r.n = nil, 0
	r.base.MarginalInto(&r.marg)
}

// Marginal returns the running marginal, valid until the next Add.
func (r *CofactorRoot) Marginal() *Covar { return &r.marg }

// Publish returns the root's current value as an epoch, copying nothing.
func (r *CofactorRoot) Publish() CofactorEpoch {
	return CofactorEpoch{base: r.base, chunks: r.chunks, n: r.n, to: r.to}
}

// CofactorEpoch is one published value of a CofactorRoot: its base and
// the first n deltas of its log, none of which is written again.
type CofactorEpoch struct {
	base   *Cofactor
	chunks []*logChunk
	n      int
	to     []int
}

// Element materializes the epoch's element, immutable like every
// published one: groups no logged delta touched are shared with the
// base, the touched ones are replayed into one key-ordered slab. Each
// call materializes anew; nil for the zero epoch.
func (ep CofactorEpoch) Element() *Cofactor { return ep.replay(false) }

// replay orders the logged deltas by key, op order kept within a key,
// and merges them into base: a key's deltas fold into its base group as
// Cofactor.add folds them, a birth unchecked and a group pruned on
// reaching exact zero. With all set, untouched groups are copied into
// the slab too.
func (ep CofactorEpoch) replay(all bool) *Cofactor {
	b, n := ep.base, ep.n
	if n == 0 && !all {
		return b
	}
	w, stride := keyWords(b.K), b.N+b.N*b.N
	lk := make([]uint64, 0, n*w)
	for c := 0; c*logChunkLen < n; c++ {
		lk = append(lk, ep.chunks[c].keys[:min(n-c*logChunkLen, logChunkLen)*w]...)
	}
	ord := sortLog(lk, w, n)
	sk := func(j int32) []uint64 { x := int(ord[j]); return lk[x*w : (x+1)*w] }
	// Each step is one key of the merged run: its base group (-1: none)
	// and its deltas ord[lo:hi].
	type step struct{ bi, lo, hi int32 }
	steps, groups := make([]step, 0, len(b.vals)+n), 0
	for i, j := int32(0), int32(0); int(i) < len(b.vals) || int(j) < n; {
		c := 1
		if int(j) == n {
			c = -1
		} else if int(i) < len(b.vals) {
			c = slices.Compare(b.key(int(i)), sk(j))
		}
		st := step{-1, j, j}
		if c <= 0 {
			st.bi, i = i, i+1
		}
		if c >= 0 {
			for j++; int(j) < n && slices.Equal(sk(j), sk(st.lo)); j++ {
			}
			st.hi = j
		}
		if all || st.hi > st.lo {
			groups++
		}
		steps = append(steps, st)
	}
	out := &Cofactor{N: b.N, K: b.K, shared: true, keys: make([]uint64, 0, len(steps)*w), vals: make([]*Covar, 0, len(steps))}
	hdr, slab := make([]Covar, groups), make([]float64, groups*stride)
	for _, st := range steps {
		var k []uint64
		if st.bi < 0 {
			k = sk(st.lo)
		} else if k = b.key(int(st.bi)); !all && st.hi == st.lo {
			out.keys, out.vals = append(out.keys, k...), append(out.vals, b.vals[st.bi])
			continue
		}
		// g's floats are the next stride of the slab; take shapes them as
		// a block of width k, which block and CopyInto then reuse.
		g, fl := &hdr[len(hdr)-groups], slab[(len(hdr)-groups)*stride:]
		take := func(k int) { g.Sum, g.Q = fl[:k:k], fl[k:k+k*k:k+k*k] }
		live := st.bi >= 0
		if live {
			take(len(b.vals[st.bi].Sum))
			b.vals[st.bi].CopyInto(g)
		}
		for _, x := range ord[st.lo:st.hi] {
			ch, i := ep.chunks[x/logChunkLen], int(x)%logChunkLen
			dk := int(ch.meta[i].k)
			dfl := ch.floats[i*stride:]
			d := &Covar{N: b.N, Lo: int(ch.meta[i].lo), Count: ch.counts[i], Sum: dfl[:dk:dk], Q: dfl[dk : dk+dk*dk : dk+dk*dk]}
			switch {
			case live:
				g.AddMapped(d, ep.to)
				live = !g.IsZero()
			case ep.to != nil:
				take(b.N)
				clear(fl[:stride])
				g.N, g.Lo, g.Count = b.N, 0, 0
				g.AddMapped(d, ep.to)
				live = true
			default:
				take(dk)
				d.CopyInto(g)
				live = true
			}
		}
		if live {
			out.keys, out.vals, groups = append(out.keys, k...), append(out.vals, g), groups-1
		} else {
			*g = Covar{}
		}
	}
	return out
}

// sortLog orders the n keys of w words laid end to end in lk: ascending,
// ties in log order. It is a radix sort, one stable counting pass per
// byte the keys differ in, least significant first.
func sortLog(lk []uint64, w, n int) []int32 {
	ord, tmp := make([]int32, n), make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	for word := w - 1; word >= 0; word-- {
		var diff uint64
		for x := 0; x < n; x++ {
			diff |= lk[x*w+word] ^ lk[word]
		}
		for sh := 0; sh < 64; sh += 8 {
			if diff>>sh&0xff != 0 {
				var start [257]int32
				for _, x := range ord {
					start[lk[int(x)*w+word]>>sh&0xff+1]++
				}
				for d := 1; d < len(start); d++ {
					start[d] += start[d-1]
				}
				for _, x := range ord {
					d := lk[int(x)*w+word] >> sh & 0xff
					tmp[start[d]], start[d] = x, start[d]+1
				}
				ord, tmp = tmp, ord
			}
		}
	}
	return ord
}
