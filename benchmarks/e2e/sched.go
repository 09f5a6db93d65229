package main

import "time"

// clock is the time source of the open-loop scheduler; tests drive it
// with a fake.
type clock interface {
	// Now is the time since the run started.
	Now() time.Duration
	Sleep(time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration    { return time.Since(c.t0) }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacer is an open-loop schedule: burst k is due at first + k·interval
// whatever the system under test does. A generator that falls behind
// neither skips bursts nor shifts the schedule; it sends at once, and
// because latencies are measured from the due time, the wait a stall
// imposes on later ops is counted.
type pacer struct {
	interval time.Duration
	next     time.Duration
}

// wait blocks until the next burst is due and returns its due time and
// how late the generator is in starting it.
func (p *pacer) wait(c clock) (due, late time.Duration) {
	due = p.next
	p.next += p.interval
	now := c.Now()
	if now < due {
		c.Sleep(due - now)
		now = c.Now()
	}
	return due, now - due
}
