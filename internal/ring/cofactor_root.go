package ring

import "math"

// CofactorRoot is the F-IVM root result over the cofactor ring: an
// immutable base in key order (keys and one record slab, see Cofactor),
// plus an append-only log of the root deltas added since, group by group
// in op order, in fixed-size chunks that never move. The writer only
// appends to the log, folding each group into a running marginal, so it
// never writes what a reader holds, and an epoch (Publish) is base plus a
// prefix of the log: O(1). Its element is materialized on demand, written
// once in key order by one merge over the base and the sorted log that
// replays a key's deltas over its base group exactly as Cofactor.fold
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
// (see Publish) is left to the GC; the root allocates afresh in its place:
// one array per log chunk, and four objects per fold (the window, the
// base's keys and slab, the window's chunk list).
type CofactorRoot struct {
	r CofactorRing
	// to renames the delta groups' feature slots (Cofactor.AddMapped).
	to   []int
	win  *logWindow // the open window
	n    int        // deltas logged since win's base was built
	marg Covar
	// closed are the windows folds closed while an epoch of theirs was
	// out; free holds the chunks of recycled windows and spare one
	// recycled window, whose base arrays and chunk list the next fold
	// reuses; sc is the fold's scratch.
	closed []*logWindow
	free   []logChunk
	spare  *logWindow
	sc     mergeScratch
}

// logWindow is a base and the log chunks appended to it, the unit the
// root recycles.
type logWindow struct {
	base   Cofactor
	chunks []logChunk
	// out counts the epochs published and not handed back; seen is set
	// once a retirement found the closed window with one out.
	out  int
	seen bool
}

// logChunkLen is the number of delta groups per log chunk, and the
// floor of the fold threshold.
const logChunkLen = 256

// logChunk holds logChunkLen delta groups in one pointer-free array:
// their keys' words as float64 bits (logChunkLen·W), then each group's
// block as the bits of lo<<32 | width (logChunkLen), then a record
// [count | sums | Q] per group at the stride 1+N+N², each as wide as its
// delta's block.
type logChunk []float64

// chunkLen is the length of one log chunk.
func (r CofactorRing) chunkLen() int { return logChunkLen * (keyWords(r.K) + 2 + r.N + r.N*r.N) }

// entry points d at delta group i of ch, logged over n features, and
// returns it.
//
//borg:noalloc
func (ch logChunk) entry(n, w, i int, d *Covar) *Covar {
	b := math.Float64bits(ch[logChunkLen*w+i])
	lo, k := int(b>>32), int(uint32(b))
	return recWindow(d, n, lo, k, ch[logChunkLen*(w+1)+i*(1+n+n*n):][:1+k+k*k])
}

// NewCofactorRoot returns an empty root whose delta groups' slots are
// renamed by to (nil: none).
func NewCofactorRoot(r CofactorRing, to []int) *CofactorRoot {
	root := &CofactorRoot{r: r, to: to, marg: *r.covar().Zero()}
	root.win = &logWindow{base: Cofactor{N: r.N, K: r.K}}
	return root
}

// Add logs every group of delta and folds it into the marginal, then
// folds the log into a new base once it is as long as the base.
//
//borg:noalloc
func (r *CofactorRoot) Add(delta *Cofactor) {
	w, st := keyWords(r.r.K), 1+r.r.N+r.r.N*r.r.N
	blk := math.Float64frombits(uint64(delta.lo)<<32 | uint64(delta.w))
	var g Covar
	for j := 0; j < delta.n; j++ {
		c, i := r.n/logChunkLen, r.n%logChunkLen
		if c == len(r.win.chunks) {
			r.grow()
		}
		ch := r.win.chunks[c]
		for x, v := range delta.key(j) {
			ch[i*w+x] = math.Float64frombits(v)
		}
		ch[logChunkLen*w+i] = blk
		copy(ch[logChunkLen*(w+1)+i*st:], delta.rec(delta.recOf(j)))
		r.marg.AddMapped(delta.At(j, &g), r.to)
		r.n++
	}
	if r.n >= max(r.win.base.n, logChunkLen) {
		r.fold()
	}
}

// grow appends a log chunk, a recycled one when the free list has one.
// Not inlined, so that its allocations are not charged to Add.
//
//go:noinline
func (r *CofactorRoot) grow() {
	var ch logChunk
	if k := len(r.free); k > 0 {
		ch, r.free[k-1], r.free = r.free[k-1], nil, r.free[:k-1]
	} else {
		ch = make(logChunk, r.r.chunkLen())
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
	eps := [1]CofactorEpoch{{base: &old.base, chunks: old.chunks, n: r.n, to: r.to}}
	mergeEpochs(eps[:], &nw.base, &r.sc)
	if nw.chunks == nil { // room for the log that triggers the next fold
		nw.chunks = make([]logChunk, 0, max(nw.base.n, logChunkLen)/logChunkLen+1)
	}
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
// back — one a reader took — therefore keeps its window out of reuse for
// good.
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
	*ep = CofactorEpoch{base: &r.win.base, chunks: r.win.chunks, n: r.n, to: r.to, w: r.win}
}

// CofactorEpoch is one published value of a CofactorRoot: its base and
// the first n deltas of its log, none of which is written again while
// the epoch is out (see Publish).
type CofactorEpoch struct {
	base   *Cofactor
	chunks []logChunk
	n      int
	to     []int
	w      *logWindow
}

// Element materializes the epoch's element, which nothing writes: the
// base itself when the log is empty, else a new element merged from base
// and log. Each call materializes anew; nil for the zero epoch.
func (ep CofactorEpoch) Element() *Cofactor {
	if ep.n == 0 {
		return ep.base
	}
	return MergeEpochs([]CofactorEpoch{ep})
}

// MergeEpochs materializes the sum of epochs of roots over one ring and
// slot renaming — the shards of a sharded tier — as one new element,
// written once in key order by one merge over every part's base and log.
// Its groups are bitwise the sorted merge CofactorRing.Add makes of the
// parts' elements, pairwise in part order: a key on one part is that
// part's group, a key on several is summed from zero in part order, and
// a sum that reaches exact zero is dropped before the next part's group
// is met. Zero epochs count as empty parts; nil when every part is one.
func MergeEpochs(eps []CofactorEpoch) *Cofactor {
	live := eps[:0:0]
	for _, ep := range eps {
		if ep.base != nil {
			live = append(live, ep)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := new(Cofactor)
	mergeEpochs(live, out, new(mergeScratch))
	return out
}

// mergeCursor is one part of a merge: its base and log, the log's keys
// copied out in log order and its positions in key order (ord), the
// part's steps in key order with their keys laid end to end, and the
// next step.
type mergeCursor struct {
	base   *Cofactor
	chunks []logChunk
	lk     []uint64
	ord    []int32
	steps  []mergeStep
	keys   []uint64
	next   int
}

// mergeStep is one key of a part: its base group (-1: none) and its
// deltas' sorted log positions [lo, hi).
type mergeStep struct{ bi, lo, hi int32 }

// plan appends to steps one step per key of the part, in key order — a
// sorted merge of its base's keys with its sorted log — and to keys the
// step's key.
func (c *mergeCursor) plan(steps []mergeStep, keys []uint64, w int) ([]mergeStep, []uint64) {
	b, n := c.base, int32(len(c.ord))
	for i, j := int32(0), int32(0); int(i) < b.n || j < n; {
		o := 1
		if j == n {
			o = -1
		} else if int(i) < b.n {
			o = compareKeys(b.key(int(i)), c.logKey(j, w))
		}
		st := mergeStep{-1, j, j}
		if o <= 0 {
			st.bi, i = i, i+1
		}
		if o >= 0 {
			for j++; j < n && compareKeys(c.logKey(j, w), c.logKey(st.lo, w)) == 0; j++ {
			}
			st.hi = j
		}
		steps = append(steps, st)
		if st.bi >= 0 {
			keys = append(keys, b.key(int(st.bi))...)
		} else {
			keys = append(keys, c.logKey(st.lo, w)...)
		}
	}
	return steps, keys
}

// logKey returns the key of sorted log position j.
func (c *mergeCursor) logKey(j int32, w int) []uint64 { return c.lk[int(c.ord[j])*w:][:w] }

// group writes into dst, a record over out's block, the part's group of
// step st: its base group, with the deltas folded in as Cofactor.fold
// folds them — a birth unchecked, a group pruned on reaching exact zero.
// It reports whether the group is live.
func (c *mergeCursor) group(out *Cofactor, dst []float64, st mergeStep, to []int) bool {
	b, live := c.base, st.bi >= 0
	var g, d Covar
	if live {
		if b.lo == out.lo && b.w == out.w {
			copy(dst, b.rec(b.recOf(int(st.bi))))
		} else {
			place(dst, out.lo, out.w, b.At(int(st.bi), &g))
		}
		out.window(&g, dst)
	}
	n, w := out.N, keyWords(out.K)
	for _, x := range c.ord[st.lo:st.hi] {
		c.chunks[x/logChunkLen].entry(n, w, int(x)%logChunkLen, &d)
		switch {
		case live:
			g.AddMapped(&d, to)
			live = !g.IsZero()
		case to != nil:
			clear(dst)
			out.window(&g, dst).AddMapped(&d, to)
			live = true
		default:
			place(dst, out.lo, out.w, &d)
			out.window(&g, dst)
			live = true
		}
	}
	dst[0] = g.Count
	return live
}

// mergeScratch is the storage of a merge's temporaries, reused by a
// root's folds: the keys copied out of the logs, sortLog's two orders,
// the cursors, their steps and the steps' keys, one record, and the
// cursors at the least key.
type mergeScratch struct {
	lk       []uint64
	ord, tmp []int32
	cur      []mergeCursor
	steps    []mergeStep
	keys     []uint64
	acc      []float64
	hit      []int32
}

// least returns the least key of the cursors' next steps, and sets hit
// to the cursors whose next step has it, ascending; none when every
// cursor is done.
func (sc *mergeScratch) least(w int) (key []uint64) {
	sc.hit = sc.hit[:0]
	for p := range sc.cur {
		c := &sc.cur[p]
		if c.next == len(c.steps) {
			continue
		}
		head := c.keys[c.next*w:][:w]
		o := -1
		if len(sc.hit) > 0 {
			o = compareKeys(head, key)
		}
		switch {
		case o < 0:
			key, sc.hit = head, append(sc.hit[:0], int32(p))
		case o == 0:
			sc.hit = append(sc.hit, int32(p))
		}
	}
	return key
}

// mergeEpochs writes the merge of eps (see MergeEpochs) into out, reusing
// out's arrays and sc. Each part's keys are planned first (their count
// sizes out: exactly for one part, or parts holding disjoint keys), then
// each surviving group is written once, in key order. out's block is the
// full one under a renaming, and otherwise the hull of every part's base
// and logged blocks.
func mergeEpochs(eps []CofactorEpoch, out *Cofactor, sc *mergeScratch) {
	n, k, to := eps[0].base.N, eps[0].base.K, eps[0].to
	w, total, bases := keyWords(k), 0, 0
	for _, ep := range eps {
		total, bases = total+ep.n, bases+ep.base.n
	}
	sc.lk = grown(sc.lk, total*w)[:0]
	sc.ord, sc.tmp = grown(sc.ord, total), grown(sc.tmp, total)
	sc.cur, sc.steps = grown(sc.cur, len(eps)), grown(sc.steps, bases+total)[:0]
	sc.keys = grown(sc.keys, (bases+total)*w)[:0]
	lo, bw := 0, 0
	if to != nil {
		bw = n
	}
	at := 0
	for p, ep := range eps {
		start := len(sc.lk)
		for x := 0; x < ep.n; x++ {
			ch, i := ep.chunks[x/logChunkLen], x%logChunkLen
			for _, v := range ch[i*w : (i+1)*w] {
				sc.lk = append(sc.lk, math.Float64bits(v))
			}
			if to == nil {
				b := math.Float64bits(ch[logChunkLen*w+i])
				lo, bw = hull(lo, bw, int(b>>32), int(uint32(b)))
			}
		}
		if to == nil {
			lo, bw = hull(lo, bw, ep.base.lo, ep.base.w)
		}
		c := &sc.cur[p]
		*c = mergeCursor{base: ep.base, chunks: ep.chunks, lk: sc.lk[start:]}
		c.ord, at = sortLog(c.lk, w, sc.ord[at:at+ep.n], sc.tmp[at:at+ep.n]), at+ep.n
		first := len(sc.steps)
		sc.steps, sc.keys = c.plan(sc.steps, sc.keys, w)
		c.steps, c.keys = sc.steps[first:], sc.keys[first*w:]
	}
	*out = Cofactor{N: n, K: k, lo: lo, w: bw, keys: out.keys[:0], data: out.data[:0]}
	st := out.stride()
	out.keys, out.data = grown(out.keys, len(sc.steps)*w)[:0], grown(out.data, len(sc.steps)*st)[:0]
	sc.acc = grown(sc.acc, st)
	for key := sc.least(w); len(sc.hit) > 0; key = sc.least(w) {
		rec := out.data[len(out.data):][:st:st]
		// state: 0 no live group yet, 1 one part's verbatim, 2 a sum
		// of several computed from zero, as CofactorRing.Add would.
		state := 0
		for _, p := range sc.hit {
			dst := rec
			if state != 0 {
				dst = sc.acc
			}
			c := &sc.cur[p]
			c.next++
			if !c.group(out, dst, c.steps[c.next-1], to) {
				continue
			}
			switch state {
			case 0:
				state = 1
				continue
			case 1:
				for i, v := range rec {
					rec[i] = 0 + v
				}
			}
			for i, v := range sc.acc {
				rec[i] += v
			}
			if state = 2; zeroRec(rec) {
				state = 0
			}
		}
		if state != 0 {
			nk := len(out.keys)
			out.keys = out.keys[:nk+w]
			copy(out.keys[nk:], key)
			out.data, out.n = out.data[:len(out.data)+st], out.n+1
		}
	}
	clear(sc.cur) // hold no part's window past the merge
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
