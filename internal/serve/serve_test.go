package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"borg/internal/ivm"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// salesSchema builds a three-relation star with INTEGER-valued continuous
// attributes and a deterministic tuple stream over it. Integer values
// keep every maintained sum and product exactly representable, so the
// final statistics are bitwise identical regardless of the interleaving
// the concurrent writers produce.
func salesSchema(seed uint64, nSales, nItems, nStores int) (*query.Join, []ivm.Tuple, []string) {
	db := relation.NewDatabase()
	sales := db.NewRelation("Sales", []relation.Attribute{
		{Name: "item", Type: relation.Category},
		{Name: "store", Type: relation.Category},
		{Name: "units", Type: relation.Double},
	})
	items := db.NewRelation("Items", []relation.Attribute{
		{Name: "item", Type: relation.Category},
		{Name: "price", Type: relation.Double},
	})
	stores := db.NewRelation("Stores", []relation.Attribute{
		{Name: "store", Type: relation.Category},
		{Name: "area", Type: relation.Double},
	})
	src := xrand.New(seed)
	var stream []ivm.Tuple
	for i := 0; i < nItems; i++ {
		stream = append(stream, ivm.Tuple{Rel: "Items", Values: []relation.Value{
			relation.CatVal(int32(i)), relation.FloatVal(float64(1 + src.Intn(9))),
		}})
	}
	for s := 0; s < nStores; s++ {
		stream = append(stream, ivm.Tuple{Rel: "Stores", Values: []relation.Value{
			relation.CatVal(int32(s)), relation.FloatVal(float64(10 * (1 + src.Intn(20)))),
		}})
	}
	for r := 0; r < nSales; r++ {
		stream = append(stream, ivm.Tuple{Rel: "Sales", Values: []relation.Value{
			relation.CatVal(int32(src.Intn(nItems + 2))), // some dangling
			relation.CatVal(int32(src.Intn(nStores))),
			relation.FloatVal(float64(src.Intn(12))),
		}})
	}
	src.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return query.NewJoin(sales, items, stores), stream, []string{"units", "price", "area"}
}

// TestServerMatchesSerialReplay is the concurrency certificate of the
// serving layer: K concurrent writers and M concurrent readers under the
// race detector, with the final snapshot bitwise-equal to a serial batch
// replay through a maintainer of its own.
func TestServerMatchesSerialReplay(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testServerMatchesSerialReplay)
}

func testServerMatchesSerialReplay(t *testing.T) {
	const writers, readers = 4, 3
	j, stream, features := salesSchema(42, 600, 12, 5)
	srv, err := New(j, "Sales", features, Config{BatchSize: 17, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += writers {
				if err := srv.Insert(stream[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stopRead := make(chan struct{})
	var readWg sync.WaitGroup
	var reads atomic.Uint64
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			var lastEpoch, lastInserts uint64
			// Stop is honoured only after a read: the writers may
			// be done before a reader is first scheduled.
			for {
				s := srv.Snapshot()
				if s.Epoch < lastEpoch {
					t.Error("epoch went backwards")
					return
				}
				if s.Inserts < lastInserts {
					t.Error("inserts went backwards")
					return
				}
				if s.Stats().N != len(features) {
					t.Errorf("snapshot width %d, want %d", s.Stats().N, len(features))
					return
				}
				// A snapshot is immutable: re-reading it later
				// must give the same values.
				c := s.Count()
				if s.Count() != c {
					t.Error("snapshot mutated under reader")
					return
				}
				lastEpoch, lastInserts = s.Epoch, s.Inserts
				reads.Add(1)
				select {
				case <-stopRead:
					return
				default:
				}
			}
		}()
	}

	wg.Wait()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stopRead)
	readWg.Wait()
	got := srv.Snapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Inserts != uint64(len(stream)) {
		t.Fatalf("snapshot covers %d inserts, want %d", got.Inserts, len(stream))
	}
	if reads.Load() == 0 {
		t.Fatal("readers never read")
	}

	// Serial batch replay, in stream order (any order gives the
	// same bits: all values are integers).
	ref, err := ivm.NewFIVM(j, "Sales", features)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range stream {
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

// TestFlushBarrier: Flush publishes everything enqueued before it.
func TestFlushBarrier(t *testing.T) {
	j, stream, features := salesSchema(7, 100, 8, 4)
	srv, err := New(j, "Sales", features, Config{BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tp := range stream {
		if err := srv.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Inserts; got != uint64(len(stream)) {
		t.Fatalf("after flush: snapshot covers %d inserts, want %d", got, len(stream))
	}
}

// TestInsertValidation: shape errors surface synchronously at enqueue.
func TestInsertValidation(t *testing.T) {
	j, _, features := salesSchema(11, 10, 4, 2)
	srv, err := New(j, "Sales", features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Insert(ivm.Tuple{Rel: "Nope"}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := srv.Insert(ivm.Tuple{Rel: "Items", Values: []relation.Value{relation.CatVal(0)}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

// TestClosedServer: operations on a closed server fail with ErrClosed,
// and Close is idempotent.
func TestClosedServer(t *testing.T) {
	j, stream, features := salesSchema(13, 10, 4, 2)
	srv, err := New(j, "Sales", features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert(stream[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: got %v, want ErrClosed", err)
	}
	if err := srv.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: got %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// churnOp is one producer-side operation of the churn test.
type churnOp struct {
	kind int // 0 insert, 1 delete, 2 update
	t    ivm.Tuple
	old  ivm.Tuple
}

// churnStreams partitions an insert stream round-robin across `writers`
// producers and injects deletes (~15%) and updates (~10%) into each
// partition, always retracting a tuple the SAME producer inserted
// earlier — channel FIFO per sender then guarantees the writer
// goroutine sees every insert before its retraction, so no interleaving
// can delete a tuple that is not live yet. Returns the per-writer op
// streams and the surviving tuple multiset.
func churnStreams(stream []ivm.Tuple, writers int, seed uint64) ([][]churnOp, []ivm.Tuple) {
	src := xrand.New(seed)
	ops := make([][]churnOp, writers)
	live := make([][]ivm.Tuple, writers)
	bump := func(t ivm.Tuple) ivm.Tuple {
		// An integer-valued variant of t: same categorical keys, last
		// continuous attribute shifted — the shape of a correction.
		nv := append([]relation.Value(nil), t.Values...)
		nv[len(nv)-1] = relation.FloatVal(nv[len(nv)-1].F + 1)
		return ivm.Tuple{Rel: t.Rel, Values: nv}
	}
	for i, t := range stream {
		w := i % writers
		ops[w] = append(ops[w], churnOp{kind: 0, t: t})
		live[w] = append(live[w], t)
		switch r := src.Intn(100); {
		case r < 15 && len(live[w]) > 0:
			j := src.Intn(len(live[w]))
			ops[w] = append(ops[w], churnOp{kind: 1, t: live[w][j]})
			live[w][j] = live[w][len(live[w])-1]
			live[w] = live[w][:len(live[w])-1]
		case r < 25 && len(live[w]) > 0:
			j := src.Intn(len(live[w]))
			old := live[w][j]
			nu := bump(old)
			ops[w] = append(ops[w], churnOp{kind: 2, t: nu, old: old})
			live[w][j] = nu
		}
	}
	var survivors []ivm.Tuple
	for _, l := range live {
		survivors = append(survivors, l...)
	}
	return ops, survivors
}

// TestServerChurnMatchesSerialReplay is the retraction certificate of
// the serving layer: K concurrent producers issuing mixed inserts,
// deletes, and updates, with M concurrent readers, under the race
// detector — and the final snapshot bitwise-equal to a serial replay of
// only the SURVIVING tuples (integer-exact data, so any interleaving
// gives the same bits).
func TestServerChurnMatchesSerialReplay(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testServerChurnMatchesSerialReplay)
}

func testServerChurnMatchesSerialReplay(t *testing.T) {
	const writers, readers = 4, 3
	j, stream, features := salesSchema(1234, 500, 12, 5)
	ops, survivors := churnStreams(stream, writers, 4321)
	var wantInserts, wantDeletes uint64
	for _, ws := range ops {
		for _, o := range ws {
			if o.kind != 1 {
				wantInserts++ // inserts and the insert half of updates
			}
			if o.kind != 0 {
				wantDeletes++ // deletes and the retraction half of updates
			}
		}
	}
	srv, err := New(j, "Sales", features, Config{BatchSize: 17, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, o := range ops[w] {
				var err error
				switch o.kind {
				case 0:
					err = srv.Insert(o.t)
				case 1:
					err = srv.Delete(o.t)
				case 2:
					err = srv.Update(o.old, o.t)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stopRead := make(chan struct{})
	var readWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				s := srv.Snapshot()
				if s.Epoch < lastEpoch {
					t.Error("epoch went backwards")
					return
				}
				if s.Deletes > s.Inserts {
					t.Error("more deletes than inserts ever applied")
					return
				}
				lastEpoch = s.Epoch
			}
		}()
	}

	wg.Wait()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stopRead)
	readWg.Wait()
	got := srv.Snapshot()
	if q := srv.QueueLen(); q != 0 {
		t.Fatalf("QueueLen = %d after Flush, want 0", q)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Deletes != wantDeletes {
		t.Fatalf("snapshot covers %d deletes, want %d", got.Deletes, wantDeletes)
	}
	if got.Inserts != wantInserts {
		t.Fatalf("snapshot covers %d inserts, want %d", got.Inserts, wantInserts)
	}

	// Serial replay of only the surviving tuples.
	ref, err := ivm.NewFIVM(j, "Sales", features)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range survivors {
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

// TestDeleteValidationAndStrictness: shape errors surface synchronously;
// a delete whose target was never inserted is a maintenance error that
// Flush reports, and it leaves the queue accounting.
func TestDeleteValidationAndStrictness(t *testing.T) {
	j, stream, features := salesSchema(23, 10, 4, 2)
	srv, err := New(j, "Sales", features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Delete(ivm.Tuple{Rel: "Nope"}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := srv.Update(stream[0], ivm.Tuple{Rel: "Items", Values: []relation.Value{relation.CatVal(0)}}); err == nil {
		t.Fatal("wrong-arity update accepted")
	}
	// Deleting a tuple that is not live is asynchronous failure: the op
	// is accepted (shape is fine) but the writer reports it via Err and
	// Flush.
	if err := srv.Delete(stream[0]); err != nil {
		t.Fatalf("shape-valid delete rejected synchronously: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err never surfaced the failed delete")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Flush(); err == nil {
		t.Fatal("Flush did not surface the failed delete")
	}
	if got := srv.QueueLen(); got != 0 {
		t.Fatalf("QueueLen = %d after failed delete, want 0", got)
	}
}

// TestLiftedSnapshotPublished checks the lifted-ring plumbing: a server
// configured with Config.Lifted publishes a lifted element on every
// epoch — including the initial empty one — whose degree-≤2 extraction
// is bitwise-equal to the covariance triple published beside it; an
// unconfigured server publishes nil.
func TestLiftedSnapshotPublished(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testLiftedSnapshotPublished)
}

func testLiftedSnapshotPublished(t *testing.T) {
	j, stream, features := salesSchema(31, 120, 8, 4)
	srv, err := New(j, "Sales", features, Config{Payload: ivm.PayloadPoly2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if snap := srv.Snapshot(); snap.Lifted == nil {
		t.Fatal("initial snapshot of a lifted server has no lifted element")
	} else if !snap.Lifted.IsZero() {
		t.Fatal("initial lifted element not zero")
	}
	for _, tu := range stream {
		if err := srv.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if snap.Lifted == nil {
		t.Fatal("lifted element missing from published snapshot")
	}
	if got := snap.Lifted.Covar(); !got.ApproxEqual(snap.Stats(), 0) {
		t.Fatalf("lifted covar extraction %v differs from published stats %v", got, snap.Stats())
	}
	if snap.Lifted.Count() == 0 {
		t.Fatal("lifted count is zero after a joined stream")
	}

	// A plain server over the same join publishes no lifted stats.
	plain, err := New(j, "Sales", features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Snapshot().Lifted != nil {
		t.Fatal("unlifted server published a lifted element")
	}
}
