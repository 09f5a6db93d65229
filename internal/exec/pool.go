package exec

import "sync"

// Pool is a fixed set of long-lived worker goroutines that morsel scans
// run on instead of spawning fresh goroutines per scan. Long-lived
// services — the serving layer applies maintenance batches on every
// flush for the lifetime of the process — attach a Pool to their Runtime
// so steady-state scan scheduling allocates no goroutines.
//
// Submission is non-blocking: a scan task is handed to an idle pool
// worker when one is free and falls back to a fresh goroutine otherwise.
// The fallback keeps nested scans deadlock-free (a scan body that itself
// scans — first-order IVM's recursive delta joins — can never wait on
// pool capacity its own outer scan is holding).
type Pool struct {
	tasks chan func()
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewPool starts a pool of n worker goroutines (minimum 1).
//
//borg:vet-ok deadexport — benchmarks/e2e builds the pool its layer rows run on
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan func()), done: make(chan struct{})}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case f := <-p.tasks:
					f()
				case <-p.done:
					return
				}
			}
		}()
	}
	return p
}

// Close stops the workers after their current task. Tasks that fell back
// to fresh goroutines are unaffected. Close must be called exactly once;
// callers own the pool lifecycle.
func (p *Pool) Close() {
	close(p.done)
	p.wg.Wait()
}

// run executes f on an idle pool worker, or on a fresh goroutine when
// every worker is busy (or the pool is nil).
func (p *Pool) run(f func()) {
	if p == nil {
		go f()
		return
	}
	select {
	case p.tasks <- f:
	default:
		go f()
	}
}
