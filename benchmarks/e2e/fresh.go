package main

import (
	"sync/atomic"
	"time"
)

// stamp marks a point of the op stream: once a snapshot covers units
// tuple halves (its Inserts()+Deletes() beyond the preload), every op up
// to that point is visible. due is when the ops were due to be sent, on
// the run's clock.
type stamp struct {
	units uint64
	due   time.Duration
}

// freshProbe measures enqueue-to-visible latency from outside the
// program. The one producer marks stamps as it sends; a watcher polls
// the published snapshot and, for every stamp the snapshot now covers,
// records now − due. With one producer and one shard the ingest queue is
// FIFO, so coverage of a unit count is coverage of exactly the ops sent
// before the stamp. A latency is over-stated by at most one polling
// interval, which the probe measures and reports as its resolution.
type freshProbe struct {
	ring []stamp // single producer, single consumer
	head atomic.Uint64
	tail atomic.Uint64

	lastPoll time.Duration
	gaps     []float64 // polling intervals while stamps were pending, µs
}

func newFreshProbe(capacity int) *freshProbe {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &freshProbe{ring: make([]stamp, n)}
}

// mark records that the ops sent so far amount to units and were due at
// due. It reports false, recording nothing, when the watcher has fallen
// a whole ring behind.
func (p *freshProbe) mark(units uint64, due time.Duration) bool {
	h := p.head.Load()
	if h-p.tail.Load() >= uint64(len(p.ring)) {
		return false
	}
	p.ring[h&uint64(len(p.ring)-1)] = stamp{units, due}
	p.head.Store(h + 1)
	return true
}

// poll takes one reading: visible is the unit count the current
// snapshot covers, now the time of the reading. emit gets the latency
// of every stamp newly covered.
func (p *freshProbe) poll(visible uint64, now time.Duration, emit func(due, latency time.Duration)) {
	h := p.head.Load()
	t := p.tail.Load()
	if t < h && p.lastPoll > 0 {
		p.gaps = append(p.gaps, float64(now-p.lastPoll)/float64(time.Microsecond))
	}
	p.lastPoll = now
	for ; t < h; t++ {
		s := p.ring[t&uint64(len(p.ring)-1)]
		if s.units > visible {
			break
		}
		emit(s.due, now-s.due)
	}
	p.tail.Store(t)
}

// pending is the number of stamps not yet seen covered.
func (p *freshProbe) pending() int { return int(p.head.Load() - p.tail.Load()) }
