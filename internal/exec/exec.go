// Package exec is the shared morsel-driven execution runtime under every
// engine in this repository: internal/core (the LMFAO aggregate-batch
// engine), internal/engine (the classical materialize-then-scan
// baseline), and internal/ivm (the incremental maintainers) all route
// their scan and aggregation inner loops through the scheduler and the
// typed columnar kernels defined here, instead of carrying private
// copies of the same hot loops.
//
// The execution model is morsel-driven parallelism (Leis et al., SIGMOD
// 2014): a relation scan is split into fixed-size row ranges ("morsels")
// pulled off a shared counter by a pool of worker goroutines. Each
// morsel is evaluated into its own partial state, and the partials are
// merged in morsel order after the scan. Two properties follow:
//
//   - Determinism. The morsel decomposition and the merge order depend
//     only on the row count and MorselSize — never on Workers — so for a
//     fixed MorselSize the result of a scan is bitwise identical at any
//     worker count, floating-point rounding included. The equivalence
//     tests certify this for 1, 2, and 8 workers under the race
//     detector.
//
//   - Load balancing. Workers pull the next morsel when they finish the
//     previous one, so a skewed key distribution cannot strand the scan
//     behind one slow static partition.
//
// A Runtime with Workers <= 1 and MorselSize 0 degenerates to the
// classic single-pass serial scan (one morsel covering the whole
// relation, no partials, no merge), which is what keeps the de-optimized
// Figure-6 baselines of internal/bench meaning what they meant before
// this runtime existed.
package exec

import (
	"sync"
	"sync/atomic"
)

// DefaultMorselSize is the morsel row count used by parallel runtimes
// that do not pin one explicitly. It is small enough to load-balance
// skewed scans and large enough that per-morsel state is noise.
const DefaultMorselSize = 4096

// Runtime configures the execution of one engine: how many worker
// goroutines scans may use and how finely they are morselized. The zero
// value is the serial runtime.
type Runtime struct {
	// Workers is the number of goroutines a scan may use. Values below
	// 2 select the serial path.
	Workers int
	// MorselSize is the number of rows per morsel. Zero means automatic:
	// one morsel covering the whole scan for serial runtimes (the
	// classic tight loop), DefaultMorselSize for parallel ones. Pin it
	// explicitly to make results bitwise reproducible across different
	// worker counts.
	MorselSize int
	// Pool, when non-nil, supplies long-lived worker goroutines for
	// parallel scans instead of spawning fresh ones per scan. It never
	// changes what a scan computes — only where its workers run.
	Pool *Pool
}

// Serial is the runtime of the classic single-threaded scan.
func Serial() Runtime { return Runtime{Workers: 1} }

func (rt Runtime) workers() int {
	if rt.Workers < 1 {
		return 1
	}
	return rt.Workers
}

// morselSize resolves the effective morsel size for an n-row scan.
func (rt Runtime) morselSize(n int) int {
	if rt.MorselSize > 0 {
		return rt.MorselSize
	}
	if rt.workers() <= 1 {
		if n < 1 {
			return 1
		}
		return n
	}
	return DefaultMorselSize
}

// Scan is the morsel scheduler: it splits the row range [0, n) into
// morsels, evaluates body over every morsel on the worker pool (each
// with a fresh state from newState), and returns the per-morsel states
// in morsel order. Merging them in that order — see Fold — yields
// results independent of the worker count.
//
// body must not touch state owned by other morsels; reading shared
// immutable inputs (column slices, compiled views) is what it is for.
func Scan[S any](rt Runtime, n int, newState func() S, body func(s S, lo, hi int) S) []S {
	if n <= 0 {
		return nil
	}
	size := rt.morselSize(n)
	nm := (n + size - 1) / size
	out := make([]S, nm)
	workers := rt.workers()
	if workers > nm {
		workers = nm
	}
	if workers <= 1 {
		for i := 0; i < nm; i++ {
			lo, hi := bounds(i, size, n)
			out[i] = body(newState(), lo, hi)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	task := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= nm {
				return
			}
			lo, hi := bounds(i, size, n)
			out[i] = body(newState(), lo, hi)
		}
	}
	for g := 0; g < workers; g++ {
		rt.Pool.run(task)
	}
	wg.Wait()
	return out
}

func bounds(i, size, n int) (int, int) {
	lo := i * size
	hi := lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Fold merges per-morsel partial states in morsel order and returns the
// combined state — the deterministic merge step of every morsel scan.
// merge may mutate and return dst. Folding zero partials returns the
// zero S.
func Fold[S any](parts []S, merge func(dst, src S) S) S {
	var acc S
	if len(parts) == 0 {
		return acc
	}
	acc = parts[0]
	for _, p := range parts[1:] {
		acc = merge(acc, p)
	}
	return acc
}
