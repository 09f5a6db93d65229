package serve

import (
	"errors"
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
