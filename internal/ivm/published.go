package ivm

import (
	"sync"

	"borg/internal/ring"
)

// Published is one published epoch of a maintained payload: its ring
// element and the covariance triple every payload is read as. It is
// immutable once a reader has obtained it (FIVM.PublishInto, Merge), so
// readers may share it across goroutines. Only an epoch no reader ever
// obtained is written again: its writer may hand it back to
// FIVM.PublishInto, which resets it and publishes into it.
//
// The triple follows one rule. A covar or cofactor epoch's triple is
// copied at publication (a cofactor root's is its running marginal). A
// poly2 epoch derives the triple from its own element on the first
// read, and a merged epoch sums its parts' triples in part order on the
// first read; either way the derivation runs once, into storage the
// publication allocated, and its bits are the maintainer's own at that
// epoch. No read of the triple allocates or materializes a cofactor
// element: that happens once, on the first call of Cofactor.
type Published struct {
	// Lifted is the lifted degree-2 moment element, nil unless the
	// payload is PayloadPoly2. Readers must not mutate it.
	Lifted *ring.Poly2
	// n is the feature count and payload the payload, fixed at
	// publication (a derivation writes stats.N). stats and lifted are the
	// storage Stats and Lifted point into, back their floats; parts are
	// the epochs a merged epoch sums.
	n       int
	back    []float64
	payload Payload
	stats   ring.Covar
	lifted  ring.Poly2
	parts   []*Published
	derived sync.Once
	// epoch is a cofactor epoch's element before materialization.
	epoch        ring.CofactorEpoch
	cofactor     *ring.Cofactor
	materialized sync.Once
}

// onMaterialize, when set, is called by every materialization of a
// cofactor element: a test's probe.
var onMaterialize func()

// bind resets p to an unread epoch of n features and gives it one float
// backing, for its triple and, over a lifted ring, for Lifted: the one p
// already has when it is of that size, else a new one. The cofactor
// epoch is left for its root, which takes it back (ring.CofactorRoot's
// Publish).
func (p *Published) bind(n int, lr *ring.Poly2Ring) {
	size := n + n*n
	if lr != nil {
		size += lr.Len()
	}
	if len(p.back) != size {
		p.back = make([]float64, size)
	}
	back := p.back
	p.n, p.payload, p.parts, p.cofactor, p.Lifted = n, PayloadCovar, nil, nil, nil
	p.derived, p.materialized = sync.Once{}, sync.Once{}
	p.stats = ring.Covar{N: n, Sum: back[:n:n], Q: back[n : n+n*n : n+n*n]}
	if lr != nil {
		lr.Bind(&p.lifted, back[n+n*n:])
		p.Lifted, p.payload = &p.lifted, PayloadPoly2
	}
}

// Merge makes dst, a zero Published, the sum of parts: one epoch per
// shard of a sharded tier, all of one payload. Lifted elements are
// summed now, the rest on first read (see Published).
func Merge(dst *Published, parts []*Published) {
	var lr *ring.Poly2Ring
	if l := parts[0].Lifted; l != nil {
		lr = l.Ring()
	}
	dst.bind(parts[0].n, lr)
	dst.parts, dst.payload = parts, parts[0].payload
	for _, q := range parts {
		if lr != nil {
			dst.Lifted.AddInPlace(q.Lifted)
		}
	}
}

// Payload reports which ring payload the epoch carries, materializing
// nothing.
func (p *Published) Payload() Payload { return p.payload }

// Cofactor returns the epoch's immutable categorical cofactor element,
// nil unless the payload is PayloadCofactor. The first call materializes
// it, once however many readers race; a merged epoch's is one merge over
// every part's base and log (ring.MergeEpochs), which materializes no
// part's own element.
func (p *Published) Cofactor() *ring.Cofactor {
	if p.payload != PayloadCofactor {
		return nil
	}
	p.materialized.Do(p.materialize)
	return p.cofactor
}

// materialize sets cofactor.
func (p *Published) materialize() {
	if onMaterialize != nil {
		onMaterialize()
	}
	if p.parts == nil {
		p.cofactor = p.epoch.Element()
		return
	}
	eps := make([]ring.CofactorEpoch, len(p.parts))
	for i, q := range p.parts {
		eps[i] = q.epoch
	}
	p.cofactor = ring.MergeEpochs(eps)
}

// Stats returns the covariance triple at this epoch, derived once by the
// first call (see Published). Readers must not mutate it.
//
//borg:noalloc
func (p *Published) Stats() *ring.Covar {
	p.derived.Do(p.derive)
	return &p.stats
}

// derive fills a derived triple; a covar or cofactor epoch's is set.
func (p *Published) derive() {
	switch {
	case p.parts != nil:
		for _, q := range p.parts {
			p.stats.AddInPlace(q.Stats())
		}
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
