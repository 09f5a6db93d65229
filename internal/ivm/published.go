package ivm

import (
	"sync"

	"borg/internal/ring"
)

// Published is one published epoch of a maintained payload: its ring
// element and the covariance triple every payload is read as. It is
// immutable once published (FIVM.PublishInto, Merge), so readers may
// share it across goroutines.
//
// The triple follows one rule. A covar epoch's element is its triple,
// copied at publication. A poly2 or cofactor epoch derives the triple
// from its own element on the first read, and a merged epoch sums its
// parts' triples in part order on the first read; either way the
// derivation runs once, into storage the publication allocated, and
// its bits are the maintainer's own at that epoch. No read allocates.
type Published struct {
	// Lifted is the lifted degree-2 moment element, nil unless the
	// payload is PayloadPoly2. Readers must not mutate it.
	Lifted *ring.Poly2
	// Cofactor is the categorical cofactor element, nil unless the
	// payload is PayloadCofactor. It is immutable and structurally shared
	// across epochs: consecutive epochs hold the same group for every key
	// no op touched in between, and neither the writer nor a reader ever
	// mutates a published group.
	Cofactor *ring.Cofactor
	// n is the feature count, fixed at publication (a derivation writes
	// stats.N). stats and lifted are the storage Stats and Lifted point
	// into; parts are the epochs a merged epoch sums.
	n       int
	stats   ring.Covar
	lifted  ring.Poly2
	parts   []*Published
	derived sync.Once
}

// bind gives p one float backing for its triple and, over a lifted
// ring, for Lifted.
func (p *Published) bind(n int, lr *ring.Poly2Ring) {
	size := n + n*n
	if lr != nil {
		size += lr.Len()
	}
	back := make([]float64, size)
	p.n = n
	p.stats = ring.Covar{N: n, Sum: back[:n:n], Q: back[n : n+n*n : n+n*n]}
	if lr != nil {
		lr.Bind(&p.lifted, back[n+n*n:])
		p.Lifted = &p.lifted
	}
}

// Merge makes dst, a zero Published, the sum of parts: one epoch per
// shard of a sharded tier, all of one payload. The elements are summed
// now and the triple on first read (see Published).
func Merge(dst *Published, parts []*Published) {
	var lr *ring.Poly2Ring
	if l := parts[0].Lifted; l != nil {
		lr = l.Ring()
	}
	dst.bind(parts[0].n, lr)
	dst.parts = parts
	for i, q := range parts {
		if lr != nil {
			dst.Lifted.AddInPlace(q.Lifted)
		}
		// A sorted merge of immutable runs: a group living on one shard
		// (every group, when the partition attribute is a categorical
		// slot) is shared with that shard's epoch, not copied.
		if i == 0 {
			dst.Cofactor = q.Cofactor
		} else if c := q.Cofactor; c != nil {
			dst.Cofactor = ring.CofactorRing{N: c.N, K: c.K}.Add(dst.Cofactor, c)
		}
	}
}

// Stats returns the covariance triple at this epoch, derived once by the
// first call (see Published). Readers must not mutate it.
//
//borg:noalloc
func (p *Published) Stats() *ring.Covar {
	p.derived.Do(p.derive)
	return &p.stats
}

// derive fills a derived triple; a covar epoch's is already set.
func (p *Published) derive() {
	switch {
	case p.parts != nil:
		for _, q := range p.parts {
			p.stats.AddInPlace(q.Stats())
		}
	case p.Cofactor != nil:
		p.Cofactor.MarginalInto(&p.stats)
	case p.Lifted != nil:
		p.Lifted.CovarInto(&p.stats)
	}
}

// Count returns SUM(1) over the join at this epoch.
//
//borg:noalloc
func (p *Published) Count() float64 { return p.Stats().Count }

// Sum returns SUM(x_i) at this epoch.
//
//borg:noalloc
func (p *Published) Sum(i int) float64 { return p.Stats().Sum[i] }

// Moment returns SUM(x_i·x_j) at this epoch.
//
//borg:noalloc
func (p *Published) Moment(i, j int) float64 {
	st := p.Stats()
	return st.Q[i*st.N+j]
}
