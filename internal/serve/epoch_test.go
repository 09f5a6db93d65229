package serve

import (
	"context"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"borg/internal/obs"
)

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEpochPartialBatchVisibleWithoutBarrier: fewer ops than BatchSize
// become visible on their own — the writer publishes as soon as it has
// caught up with the queue; nothing needs a barrier or a timer.
func TestEpochPartialBatchVisibleWithoutBarrier(t *testing.T) {
	j, stream, features := salesSchema(9, 50, 8, 4)
	srv, err := New(j, "Sales", features, Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tp := range stream[:10] {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the snapshot to cover 10 inserts", func() bool { return srv.Snapshot().Inserts == 10 })
	eventually(t, "the queue accounting to drain", func() bool { return srv.QueueLen() == 0 })
}

// TestQueueLenInvariantUnderProducers samples the queue-accounting
// invariant while producers run: an op leaves QueueLen only after a
// snapshot covering it is published, so reading the number of accepted
// ops, THEN QueueLen, THEN the snapshot must always find
// Inserts+Deletes ≥ accepted − queueLen (a QueueLen that forgot the
// batch the writer holds breaks it at once) — and once producers have
// stopped, QueueLen()==0 means the snapshot covers every accepted op.
func TestQueueLenInvariantUnderProducers(t *testing.T) {
	j, stream, features := salesSchema(21, 1500, 8, 4)
	srv, err := New(j, "Sales", features, Config{BatchSize: 16, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const producers = 3
	var sent atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each producer inserts its share and retracts every third
			// tuple again, so both counters of the snapshot move.
			for i := p; i < len(stream); i += producers {
				if err := srv.Insert(stream[i]); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
				if i%3 == 0 {
					if err := srv.Delete(stream[i]); err != nil {
						t.Error(err)
						return
					}
					sent.Add(1)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	samples := 0
	for running := true; running; samples++ {
		select {
		case <-done:
			running = false
		default:
		}
		accepted := sent.Load()
		queued := int64(srv.QueueLen())
		snap := srv.Snapshot()
		if covered := int64(snap.Inserts + snap.Deletes); covered < accepted-queued {
			t.Fatalf("sample %d: snapshot covers %d ops with %d accepted and QueueLen %d", samples, covered, accepted, queued)
		}
	}
	eventually(t, "QueueLen to reach 0", func() bool { return srv.QueueLen() == 0 })
	if snap := srv.Snapshot(); int64(snap.Inserts+snap.Deletes) != sent.Load() {
		t.Fatalf("QueueLen is 0 but the snapshot covers %d of %d ops", snap.Inserts+snap.Deletes, sent.Load())
	}
	if err := srv.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d samples over %d ops, %d epochs", samples, sent.Load(), srv.Snapshot().Epoch)
}

// epochLog collects the "covered" attribute of every "epoch published"
// Debug record: what each epoch covered, for all epochs rather than the
// ones a polling reader happens to see.
type epochLog struct {
	mu      sync.Mutex
	covered []int64
}

func (l *epochLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *epochLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *epochLog) WithGroup(string) slog.Handler            { return l }
func (l *epochLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "epoch published" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "covered" {
			l.mu.Lock()
			l.covered = append(l.covered, a.Value.Int64())
			l.mu.Unlock()
		}
		return true
	})
	return nil
}

// epochs returns what each epoch so far covered, and the total.
func (l *epochLog) epochs() (covered []int64, sum int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.covered {
		sum += c
	}
	return append([]int64(nil), l.covered...), sum
}

// TestEpochRule pins the publication rule from the writer's own
// records. Under a closed-loop producer of N ≫ BatchSize ops every
// epoch covers fewer than 2·BatchSize ops — a batch of at most BatchSize
// on top of fewer than BatchSize unpublished — the epochs together
// cover exactly the ops applied, and so there are more than
// N/(2·BatchSize) of them. A k-op burst into an idle server needs no
// barrier to become visible and costs at most k epochs.
func TestEpochRule(t *testing.T) {
	const batch = 8
	j, stream, features := salesSchema(31, 2000, 8, 4)
	log := &epochLog{}
	srv, err := New(j, "Sales", features, Config{BatchSize: batch, QueueDepth: 64, Logger: slog.New(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const k = 5
	for _, tp := range stream[:k] {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the burst to be covered", func() bool { return srv.QueueLen() == 0 })
	if covered, sum := log.epochs(); sum != k || len(covered) > k {
		t.Fatalf("a %d-op burst into an idle server: epochs covering %v, want at most %d covering %d in all", k, covered, k, k)
	}

	rest := stream[k:]
	for i, tp := range rest {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 { // barriers cut batches short; the bound must survive them
			if _, err := srv.Cardinalities(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	covered, sum := log.epochs()
	for e, c := range covered {
		if c < 1 || c >= 2*batch {
			t.Fatalf("epoch %d covers %d ops, want 1 ≤ covered < 2·BatchSize = %d", e+1, c, 2*batch)
		}
	}
	if snap := srv.Snapshot(); sum != int64(len(stream)) || snap.Inserts != uint64(len(stream)) || snap.Epoch != uint64(len(covered)) {
		t.Fatalf("%d epochs cover %d ops; snapshot epoch %d covers %d; want all %d ops", len(covered), sum, snap.Epoch, snap.Inserts, len(stream))
	}
	if min := len(rest) / (2 * batch); len(covered) < min {
		t.Fatalf("%d epochs for %d ops, want at least %d", len(covered), len(stream), min)
	}
	t.Logf("%d ops in %d epochs (BatchSize %d)", len(stream), len(covered), batch)
}

// TestFreshnessHistogram: every publication that covers ops observes
// borg_serve_freshness_ns once — the age of the oldest op it covers —
// so the series counts epochs, and an op's enqueue-to-visible time is
// never below its wait in the queue.
func TestFreshnessHistogram(t *testing.T) {
	j, stream, features := salesSchema(33, 120, 8, 4)
	reg := obs.NewRegistry()
	srv, err := New(j, "Sales", features, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// One op per epoch: the epoch's oldest op is its only op.
	const singles = 6
	for i, tp := range stream[:singles] {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
		eventually(t, "the op to be covered", func() bool { return srv.QueueLen() == 0 })
		if e := srv.Snapshot().Epoch; e != uint64(i+1) {
			t.Fatalf("after %d single ops: epoch %d", i+1, e)
		}
	}
	pts := metricPoints(reg)
	fresh, wait := pts["borg_serve_freshness_ns"], pts["borg_serve_queue_wait_ns"]
	if fresh.Count != singles || wait.Count != singles {
		t.Fatalf("freshness observed %d times, queue wait %d, want %d each", fresh.Count, wait.Count, singles)
	}
	if fresh.Sum < wait.Sum || fresh.Sum <= 0 {
		t.Fatalf("freshness sums to %d ns over epochs whose ops waited %d ns in the queue", fresh.Sum, wait.Sum)
	}
	// A burst: however the writer cuts it into epochs, one observation each.
	for _, tp := range stream[singles:] {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the burst to be covered", func() bool { return srv.QueueLen() == 0 })
	if got, epoch := metricPoints(reg)["borg_serve_freshness_ns"].Count, srv.Snapshot().Epoch; got != epoch {
		t.Fatalf("freshness observed %d times over %d epochs", got, epoch)
	}
	// The control arm registers nothing and stamps nothing.
	off, err := New(j, "Sales", features, Config{MetricsOff: true})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if err := off.Insert(stream[0]); err != nil {
		t.Fatal(err)
	}
	if err := off.Flush(); err != nil {
		t.Fatal(err)
	}
	if !off.oldest.IsZero() {
		t.Fatal("MetricsOff server tracked an enqueue time")
	}
}

// breakMaintainer makes the writer's next use of srv's maintainer
// panic: every method of a nil *ivm.FIVM dereferences nil. Call it
// between a Flush, which orders the writer's earlier reads of srv.m
// before the write, and the next enqueue, which orders the write before
// its later ones.
func breakMaintainer(srv *Server) { srv.m = nil }

// TestWriterPanicContained: a panic under the writer neither kills the
// process nor strands anyone. Producers parked on a full queue return,
// the panic is the sticky Err — and what Flush, Replan, Cardinalities
// and Close report — QueueLen drains to 0, the last good epoch stays
// readable, the panic is counted, and Close leaves no goroutine behind.
func TestWriterPanicContained(t *testing.T) {
	before := runtime.NumGoroutine()
	j, stream, features := salesSchema(41, 800, 8, 4)
	reg := obs.NewRegistry()
	srv, err := New(j, "Sales", features, Config{BatchSize: 8, QueueDepth: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Two batches apply before the maintainer breaks.
	const applied = 16
	for _, tp := range stream[:applied] {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	breakMaintainer(srv)

	const producers = 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := applied + p; i < len(stream); i += producers {
				if err := srv.Insert(stream[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("producers still parked on the queue of a panicked writer")
	}
	eventually(t, "QueueLen to reach 0", func() bool { return srv.QueueLen() == 0 })
	werr := srv.Err()
	if werr == nil || !strings.Contains(werr.Error(), "writer panicked") {
		t.Fatalf("Err() = %v, want the writer's panic", werr)
	}
	good := srv.Snapshot()
	if good.Inserts == 0 || good.Inserts >= uint64(len(stream)) {
		t.Fatalf("last epoch covers %d inserts, want the batches before the panic only", good.Inserts)
	}
	if err := srv.Flush(); err != werr {
		t.Fatalf("Flush() = %v, want %v", err, werr)
	}
	if err := srv.Replan(); err != werr {
		t.Fatalf("Replan() = %v, want %v", err, werr)
	}
	if _, err := srv.Cardinalities(); err != werr {
		t.Fatalf("Cardinalities() = %v, want %v", err, werr)
	}
	if err := srv.Insert(stream[0]); err != nil {
		t.Fatalf("Insert after the panic = %v, want it accepted and discarded", err)
	}
	eventually(t, "the discarded op to leave the accounting", func() bool { return srv.QueueLen() == 0 })
	if srv.Snapshot() != good {
		t.Fatal("a failed writer published an epoch")
	}
	if p := metricPoints(reg)["borg_serve_writer_panics_total"]; p.Value != 1 {
		t.Fatalf("writer_panics_total = %v, want 1", p.Value)
	}
	if err := srv.Close(); err != werr {
		t.Fatalf("Close() = %v, want %v", err, werr)
	}
	eventually(t, "the server's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestWriterPanicInBarrier: the barrier being served when the writer
// panics is answered too — its caller is the one goroutine that could
// not be released by draining the queue.
func TestWriterPanicInBarrier(t *testing.T) {
	j, stream, features := salesSchema(43, 40, 8, 4)
	srv, err := New(j, "Sales", features, Config{BatchSize: 1 << 20, MetricsOff: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range stream {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	breakMaintainer(srv)
	type answer struct {
		cards map[string]int
		err   error
	}
	got := make(chan answer, 1)
	go func() {
		cards, err := srv.Cardinalities()
		got <- answer{cards, err}
	}()
	select {
	case a := <-got:
		if a.cards != nil || a.err == nil || a.err != srv.Err() {
			t.Fatalf("Cardinalities() = %v, %v with Err() = %v, want the writer's panic", a.cards, a.err, srv.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Cardinalities never returned from a panicked writer")
	}
	if got, want := srv.Snapshot().Inserts, uint64(len(stream)); got != want {
		t.Fatalf("last epoch covers %d inserts, want %d", got, want)
	}
	if err := srv.Close(); err != srv.Err() || err == nil {
		t.Fatalf("Close() = %v, want the writer's panic %v", err, srv.Err())
	}
}
