package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"borg/internal/ivm"
	"borg/internal/query"
	"borg/internal/relation"
)

// tinyRing is the queue the slot-ring tests run on: four slots and runs
// of two, so the ring wraps and producers park on it all the time.
var tinyRing = Config{BatchSize: 2, QueueDepth: 4}

// matchRecompute fails t unless got's statistics equal, bit for bit, a
// serial maintainer's over tuples (integer data: any order, same bits).
func matchRecompute(t *testing.T, got *Snapshot, j *query.Join, features []string, tuples []ivm.Tuple) {
	t.Helper()
	ref, err := ivm.NewFIVM(j, "Sales", features)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := ref.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Snapshot()
	if got.Stats().Count != want.Count {
		t.Fatalf("count: got %v, want %v", got.Stats().Count, want.Count)
	}
	for i := range features {
		if got.Stats().Sum[i] != want.Sum[i] {
			t.Fatalf("sum[%d]: got %v, want %v", i, got.Stats().Sum[i], want.Sum[i])
		}
		for k := range features {
			if got.Moment(i, k) != want.Q[i*want.N+k] {
				t.Fatalf("moment[%d,%d]: got %v, want %v", i, k, got.Moment(i, k), want.Q[i*want.N+k])
			}
		}
	}
}

// TestSlotRingCloseRace: Close races producers parked on a full ring.
// Each insert either returns nil and is applied, or returns ErrClosed —
// and so does every later one of its producer — and is not; nothing
// stays queued.
func TestSlotRingCloseRace(t *testing.T) {
	const producers = 6
	j, stream, features := salesSchema(51, 600, 8, 4)
	srv, err := New(j, "Sales", features, tinyRing)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make([][]ivm.Tuple, producers)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			closed := false
			for i := p; i < len(stream); i += producers {
				switch err := srv.Insert(stream[i]); {
				case err == nil && !closed:
					accepted[p] = append(accepted[p], stream[i])
					sent.Add(1)
				case errors.Is(err, ErrClosed):
					closed = true
				default:
					t.Errorf("insert %d: %v after ErrClosed=%v", i, err, closed)
					return
				}
			}
		}()
	}
	for sent.Load() < int64(len(stream)/3) {
		runtime.Gosched()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if q := srv.QueueLen(); q != 0 {
		t.Fatalf("QueueLen = %d after Close, want 0", q)
	}
	var all []ivm.Tuple
	for _, a := range accepted {
		all = append(all, a...)
	}
	got := srv.Snapshot()
	if got.Inserts != uint64(len(all)) {
		t.Fatalf("final epoch covers %d inserts, %d were accepted", got.Inserts, len(all))
	}
	matchRecompute(t, got, j, features, all)
}

// TestSlotRingBarrierOrder: Flush, Cardinalities and Replan barriers,
// interleaved with the inserts of several producers, each cover every op
// accepted before they were enqueued — their own producer's and anyone
// else's.
func TestSlotRingBarrierOrder(t *testing.T) {
	const producers = 4
	j, stream, features := salesSchema(53, 400, 8, 4)
	srv, err := New(j, "", features, tinyRing)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, i := 0, p; i < len(stream); n, i = n+1, i+producers {
				if err := srv.Insert(stream[i]); err != nil {
					t.Error(err)
					return
				}
				accepted.Add(1)
				if n%7 != 6 {
					continue
				}
				before := uint64(accepted.Load())
				var covered uint64
				var err error
				switch kind := n / 7 % 3; kind {
				case 0:
					err = srv.Flush()
					covered = srv.Snapshot().Inserts
				case 1:
					var cards map[string]int
					cards, err = srv.Cardinalities()
					for _, c := range cards {
						covered += uint64(c)
					}
				default:
					err = srv.Replan()
					covered = srv.Snapshot().Inserts
				}
				if err != nil {
					t.Error(err)
					return
				}
				if covered < before {
					t.Errorf("barrier %d covers %d ops, %d were accepted before it", n/7%3, covered, before)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	matchRecompute(t, srv.Snapshot(), j, features, stream)
}

// TestSlotRingCopyIn: a producer scribbles over its values as soon as
// Insert, Delete or Update returns, and the published state is still a
// recompute over what was sent — the queue holds copies.
func TestSlotRingCopyIn(t *testing.T) {
	const writers = 4
	j, stream, features := salesSchema(57, 500, 12, 5)
	ops, survivors := churnStreams(stream, writers, 5757)
	srv, err := New(j, "Sales", features, tinyRing)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	scribble := func(vals []relation.Value) {
		for i := range vals {
			vals[i] = relation.Value{F: -1e9, C: 1 << 30}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nu, old []relation.Value // one buffer per half, reused for every op
			for _, o := range ops[w] {
				nu = append(nu[:0], o.t.Values...)
				old = append(old[:0], o.old.Values...)
				tu := ivm.Tuple{Rel: o.t.Rel, Values: nu}
				var err error
				switch o.kind {
				case 0:
					err = srv.Insert(tu)
				case 1:
					err = srv.Delete(tu)
				default:
					err = srv.Update(ivm.Tuple{Rel: o.old.Rel, Values: old}, tu)
				}
				scribble(nu)
				scribble(old)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	matchRecompute(t, srv.Snapshot(), j, features, survivors)
}

// TestReplanAllocsDoNotGrowWithRows: a replan reingests the live rows
// through one reused value buffer per chunk, so eight times the rows
// cost nowhere near eight times the allocations — only the new
// maintainer's tables grow, by doubling.
func TestReplanAllocsDoNotGrowWithRows(t *testing.T) {
	allocs := func(nSales int) float64 {
		j, stream, features := salesSchema(61, nSales, 8, 4)
		srv, err := New(j, "Sales", features, Config{MetricsOff: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range stream {
			if err := srv.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		// The writer has stopped: the test goroutine drives the rebuilds,
		// alternating roots so that each one rebuilds.
		roots, n := []string{"Items", "Sales"}, 0
		return testing.AllocsPerRun(4, func() {
			if err := srv.replan(roots[n%2]); err != nil || srv.root != roots[n%2] {
				t.Fatalf("replan onto %s: root %s, %v", roots[n%2], srv.root, err)
			}
			n++
		})
	}
	small, large := allocs(2000), allocs(16000)
	t.Logf("replan allocations: %.0f at 2 000 live rows, %.0f at 16 000", small, large)
	if large-small > (16000-2000)/100 {
		t.Fatalf("a replan over 14 000 more live rows allocates %.0f more, want under one per 100 rows", large-small)
	}
}
