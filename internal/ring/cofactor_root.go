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
//
// A base and the log appended to it are one window, and a fold closes
// it. The root counts the epochs of each window that are out: published
// and not handed back to Publish. A closed window with none out is
// recycled: its chunks go on a free list that Add takes from before it
// allocates, and its base's arrays become the output of a later fold, so
// bases are double-buffered. A window with an epoch out at its retirement
// (see Publish) is left to the GC; the root allocates afresh in its place.
type CofactorRoot struct {
	r CofactorRing
	// to renames the delta groups' feature slots (Cofactor.AddMapped).
	to   []int
	win  *logWindow // the open window
	n    int        // deltas logged since win's base was built
	marg Covar
	// closed are the windows folds closed while an epoch of theirs was
	// out; free holds the chunks of recycled windows and spare one
	// recycled window, whose base arrays and chunk array the next fold
	// reuses; sc is the fold's scratch.
	closed []*logWindow
	free   []*logChunk
	spare  *logWindow
	sc     replayScratch
}

// logWindow is a base and the log chunks appended to it, the unit the
// root recycles. hdr and slab are the base's group headers and floats
// (nil for an empty root's base).
type logWindow struct {
	base   *Cofactor
	hdr    []Covar
	slab   []float64
	chunks []*logChunk
	// out counts the epochs published and not handed back; seen is set
	// once a retirement found the closed window with one out.
	out  int
	seen bool
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
	root := &CofactorRoot{r: r, to: to, marg: *r.covar().Zero()}
	root.win = &logWindow{base: r.Zero()}
	root.win.base.shared = true
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
		if c == len(r.win.chunks) {
			r.grow()
		}
		ch, k := r.win.chunks[c], len(g.Sum)
		copy(ch.keys[i*w:(i+1)*w], delta.key(j))
		ch.meta[i].lo, ch.meta[i].k, ch.counts[i] = int32(g.Lo), int32(k), g.Count
		copy(ch.floats[i*stride:], g.Sum)
		copy(ch.floats[i*stride+k:], g.Q)
		r.marg.AddMapped(g, r.to)
		r.n++
	}
	if r.n >= max(len(r.win.base.vals), logChunkLen) {
		r.fold()
	}
}

// grow appends a log chunk, a recycled one when the free list has one.
// Not inlined, so that its allocations are not charged to Add.
//
//go:noinline
func (r *CofactorRoot) grow() {
	var ch *logChunk
	if k := len(r.free); k > 0 {
		ch, r.free[k-1], r.free = r.free[k-1], nil, r.free[:k-1]
	} else {
		ch = &logChunk{keys: make([]uint64, logChunkLen*keyWords(r.r.K)),
			meta: make([]struct{ lo, k int32 }, logChunkLen), counts: make([]float64, logChunkLen),
			floats: make([]float64, logChunkLen*(r.r.N+r.r.N*r.r.N))}
	}
	r.win.chunks = append(r.win.chunks, ch)
}

// fold closes the open window: its whole log becomes the base of a new
// window, written into the spare window's arrays when there is one. The
// closed window is recycled at once if none of its epochs is out, and
// otherwise waits for retirement (see Publish): the current epoch still
// reaches it.
//
//go:noinline
func (r *CofactorRoot) fold() {
	old, nw := r.win, r.spare
	if nw == nil {
		nw = new(logWindow)
	}
	r.spare = nil
	CofactorEpoch{base: old.base, chunks: old.chunks, n: r.n, to: r.to}.replay(nw, &r.sc)
	nw.out, nw.seen = 0, false
	r.win, r.n = nw, 0
	nw.base.MarginalInto(&r.marg)
	if old.out == 0 {
		r.recycle(old)
	} else {
		r.closed = append(r.closed, old)
	}
}

// recycle puts a window no epoch reaches on the free lists: its chunks
// for grow, itself as the spare.
func (r *CofactorRoot) recycle(w *logWindow) {
	r.free = append(r.free, w.chunks...)
	clear(w.chunks)
	w.chunks = w.chunks[:0]
	r.spare = w
}

// Marginal returns the running marginal, valid until the next Add.
func (r *CofactorRoot) Marginal() *Covar { return &r.marg }

// Publish sets *ep to the root's current value, an epoch that copies
// nothing. *ep is the zero epoch or one this root published that no
// reader obtained, handed back: its window has one epoch fewer out.
// Publication is also where closed windows retire. One with no epoch out
// is recycled; one found with an epoch out at two publications is left
// to the GC, since a writer hands an unread epoch back at most one
// publication after it was superseded. An epoch that is never handed
// back — one a reader took — therefore keeps its window, and everything
// an element materialized from it shares, out of reuse for good.
func (r *CofactorRoot) Publish(ep *CofactorEpoch) {
	if ep.w != nil {
		ep.w.out--
	}
	keep := r.closed[:0]
	for _, w := range r.closed {
		switch {
		case w.out == 0:
			r.recycle(w)
		case !w.seen:
			w.seen = true
			keep = append(keep, w)
		}
	}
	clear(r.closed[len(keep):])
	r.closed = keep
	r.win.out++
	*ep = CofactorEpoch{base: r.win.base, chunks: r.win.chunks, n: r.n, to: r.to, w: r.win}
}

// CofactorEpoch is one published value of a CofactorRoot: its base and
// the first n deltas of its log, none of which is written again while
// the epoch is out (see Publish).
type CofactorEpoch struct {
	base   *Cofactor
	chunks []*logChunk
	n      int
	to     []int
	w      *logWindow
}

// Element materializes the epoch's element, immutable like every
// published one: groups no logged delta touched are shared with the
// base, the touched ones are replayed into one key-ordered slab. Each
// call materializes anew; nil for the zero epoch.
func (ep CofactorEpoch) Element() *Cofactor { return ep.replay(nil, nil) }

// replayStep is one key of a replay's merged run: its base group (-1:
// none) and its deltas ord[lo:hi].
type replayStep struct{ bi, lo, hi int32 }

// replayScratch is the storage of a replay's temporaries, reused by a
// root's folds: the keys copied out of the log, sortLog's two orders
// and the merged run.
type replayScratch struct {
	lk       []uint64
	ord, tmp []int32
	steps    []replayStep
}

// grown returns s resliced to length n. A nil s is allocated exactly; a
// buffer that has proved short is reallocated with an eighth of headroom,
// so that a base growing by a few groups a fold does not reallocate at
// every fold.
func grown[T any](s []T, n int) []T {
	switch {
	case s == nil:
		return make([]T, n)
	case cap(s) < n:
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// replay orders the logged deltas by key, op order kept within a key,
// and merges them into base: a key's deltas fold into its base group as
// Cofactor.add folds them, a birth unchecked and a group pruned on
// reaching exact zero. A fold passes into and sc: every group is copied
// into the slab, the element is built in into's arrays, and the
// temporaries live in sc. A reader passes neither: untouched groups are
// shared with the base, and the replay allocates what it builds.
func (ep CofactorEpoch) replay(into *logWindow, sc *replayScratch) *Cofactor {
	b, n, all := ep.base, ep.n, into != nil
	if n == 0 && !all {
		return b
	}
	if !all {
		into, sc = new(logWindow), new(replayScratch)
	}
	w, stride := keyWords(b.K), b.N+b.N*b.N
	lk := grown(sc.lk, n*w)[:0]
	for c := 0; c*logChunkLen < n; c++ {
		lk = append(lk, ep.chunks[c].keys[:min(n-c*logChunkLen, logChunkLen)*w]...)
	}
	sc.lk = lk
	sc.ord, sc.tmp = grown(sc.ord, n), grown(sc.tmp, n)
	ord := sortLog(lk, w, sc.ord, sc.tmp)
	sk := func(j int32) []uint64 { x := int(ord[j]); return lk[x*w : (x+1)*w] }
	steps, groups := grown(sc.steps, len(b.vals)+n)[:0], 0
	for i, j := int32(0), int32(0); int(i) < len(b.vals) || int(j) < n; {
		c := 1
		if int(j) == n {
			c = -1
		} else if int(i) < len(b.vals) {
			c = slices.Compare(b.key(int(i)), sk(j))
		}
		st := replayStep{-1, j, j}
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
	sc.steps = steps
	if into.base == nil {
		into.base = new(Cofactor)
	}
	out := into.base
	*out = Cofactor{N: b.N, K: b.K, shared: true, keys: grown(out.keys, len(steps)*w)[:0], vals: grown(out.vals, len(steps))[:0]}
	into.hdr, into.slab = grown(into.hdr, groups), grown(into.slab, groups*stride)
	hdr, slab, used := into.hdr, into.slab, 0
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
		g, fl := &hdr[used], slab[used*stride:]
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
			out.keys, out.vals, used = append(out.keys, k...), append(out.vals, g), used+1
		} else {
			*g = Covar{}
		}
	}
	return out
}

// sortLog orders the len(ord) keys of w words laid end to end in lk:
// ascending, ties in log order. It is a radix sort, one stable counting
// pass per byte the keys differ in, least significant first, between
// ord and tmp (of one length); it returns the one holding the order.
func sortLog(lk []uint64, w int, ord, tmp []int32) []int32 {
	n := len(ord)
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
