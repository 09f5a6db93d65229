package borg

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// serverTuple is one public-facade insert for the concurrency tests.
type serverTuple struct {
	rel    string
	values []any
}

// serverStream generates a deterministic insert stream with INTEGER
// feature values: every maintained sum and product stays exactly
// representable, so the final statistics are bitwise identical for any
// interleaving of the concurrent writers — which is what lets the test
// demand exact equality against a batch recomputation.
func serverStream(nSales, nItems, nStores int) []serverTuple {
	var out []serverTuple
	for i := 0; i < nItems; i++ {
		out = append(out, serverTuple{"Items", []any{fmt.Sprintf("item%d", i), 1 + (i*7)%9}})
	}
	for s := 0; s < nStores; s++ {
		out = append(out, serverTuple{"Stores", []any{fmt.Sprintf("store%d", s), 10 * (1 + (s*3)%20)}})
	}
	state := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for r := 0; r < nSales; r++ {
		out = append(out, serverTuple{"Sales", []any{
			fmt.Sprintf("item%d", next(nItems+2)), // some sales never find an item
			fmt.Sprintf("store%d", next(nStores)),
			next(12),
		}})
	}
	// Deterministic interleave of dimensions and facts.
	for i := len(out) - 1; i > 0; i-- {
		j := next(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// recomputeBatch joins the raw tuple stream by hand — no engine code —
// and returns count, per-feature sums, and the second-moment matrix over
// features = [units, price, area].
func recomputeBatch(stream []serverTuple, features []string) (float64, []float64, [][]float64) {
	price := make(map[string]float64)
	area := make(map[string]float64)
	for _, tp := range stream {
		switch tp.rel {
		case "Items":
			price[tp.values[0].(string)] = float64(tp.values[1].(int))
		case "Stores":
			area[tp.values[0].(string)] = float64(tp.values[1].(int))
		}
	}
	count := 0.0
	sums := make([]float64, len(features))
	moments := make([][]float64, len(features))
	for i := range moments {
		moments[i] = make([]float64, len(features))
	}
	for _, tp := range stream {
		if tp.rel != "Sales" {
			continue
		}
		p, okP := price[tp.values[0].(string)]
		a, okA := area[tp.values[1].(string)]
		if !okP || !okA {
			continue // dangling sale: no join partner
		}
		row := []float64{float64(tp.values[2].(int)), p, a} // units, price, area
		count++
		for i := range row {
			sums[i] += row[i]
			for k := range row {
				moments[i][k] += row[i] * row[k]
			}
		}
	}
	return count, sums, moments
}

func serverSchema(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	db.AddRelation("Sales", Cat("item"), Cat("store"), Num("units"))
	db.AddRelation("Items", Cat("item"), Num("price"))
	db.AddRelation("Stores", Cat("store"), Num("area"))
	return db
}

// TestServerConcurrentBitwise is the serving layer's race certificate at
// the public facade: K writer clients × M reader goroutines under -race,
// and the final snapshot bitwise-equal to a batch recomputation of the
// same tuples through the LMFAO engine.
func TestServerConcurrentBitwise(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testServerConcurrentBitwise)
}

func testServerConcurrentBitwise(t *testing.T) {
	const writers, readers = 4, 4
	features := []string{"units", "price", "area"}
	stream := serverStream(400, 10, 5)

	db := serverSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{BatchSize: 13}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += writers {
				if err := srv.Insert(stream[i].rel, stream[i].values...); err != nil {
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
				snap := srv.CovarSnapshot()
				if snap.Epoch() < lastEpoch {
					t.Error("epoch went backwards")
					return
				}
				lastEpoch = snap.Epoch()
				// The empty prefix of the stream legitimately has no
				// statistics: the typed error is the contract, NaN
				// would be the bug.
				if _, err := snap.Mean("price"); err != nil && !errors.Is(err, ErrEmptySnapshot) {
					t.Error(err)
					return
				}
				if snap.Count() > 0 {
					if _, err := snap.TrainLinReg("units", 1e-3); err != nil {
						t.Error(err)
						return
					}
				}
				st := srv.Stats()
				if st.Queued < 0 {
					t.Error("negative queue")
					return
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
	snap := srv.CovarSnapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Inserts() != uint64(len(stream)) {
		t.Fatalf("snapshot covers %d inserts, want %d", snap.Inserts(), len(stream))
	}

	// Batch recomputation #1, engine-independent: join the raw
	// tuples directly and accumulate count/sums/moments. All
	// values are integers, so every accumulation is exact and
	// the comparison below can demand bitwise equality.
	count, sums, moments := recomputeBatch(stream, features)
	if got := snap.Count(); got != count {
		t.Fatalf("count: got %v, want %v", got, count)
	}
	for i, f := range features {
		got, err := snap.Mean(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := sums[i] / count; got != want {
			t.Fatalf("mean(%s): got %v, want %v", f, got, want)
		}
		for k, g := range features {
			gm, err := snap.SecondMoment(f, g)
			if err != nil {
				t.Fatal(err)
			}
			if gm != moments[i][k] {
				t.Fatalf("moment(%s,%s): got %v, want %v", f, g, gm, moments[i][k])
			}
		}
	}

	// Batch recomputation #2, through the LMFAO engine: the
	// model trained on the snapshot must match the model trained
	// on batch-computed moments over the same tuples.
	ref := serverSchema(t)
	for _, tp := range stream {
		rel := ref.Relation(tp.rel)
		if err := rel.Append(tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	rq, err := ref.Query()
	if err != nil {
		t.Fatal(err)
	}
	mSnap, err := snap.TrainLinReg("units", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	mBatch, err := rq.LinearRegression(Features{Continuous: []string{"price", "area"}}, "units", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mSnap.Intercept()-mBatch.Intercept()) > 1e-9 {
		t.Fatalf("intercept: snapshot %v vs batch %v", mSnap.Intercept(), mBatch.Intercept())
	}
	for _, f := range []string{"price", "area"} {
		a, err := mSnap.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mBatch.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("coefficient(%s): snapshot %v vs batch %v", f, a, b)
		}
	}
}

// TestServerChurnFacade drives the public facade through a mixed
// insert/delete/update workload — corrections and expirations alongside
// new data — and demands that the model trained on the post-churn
// snapshot matches LMFAO batch training on a database holding only the
// surviving rows.
func TestServerChurnFacade(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testServerChurnFacade)
}

func testServerChurnFacade(t *testing.T) {
	features := []string{"units", "price", "area"}
	stream := serverStream(250, 10, 5)

	db := serverSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}

	// Single producer with deterministic churn: ~20% of Sales
	// rows expire (delete), ~10% are corrected (update). Deletes
	// and updates always target a previously inserted tuple, so
	// the per-producer FIFO guarantees they find it live.
	state := uint64(0xDEADBEEFCAFE)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	var live []serverTuple
	var surviving []serverTuple
	for _, tp := range stream {
		if err := srv.Insert(tp.rel, tp.values...); err != nil {
			t.Fatal(err)
		}
		if tp.rel == "Sales" {
			live = append(live, tp)
		} else {
			surviving = append(surviving, tp) // dimensions never churn here
		}
		if len(live) == 0 {
			continue
		}
		switch r := next(100); {
		case r < 20:
			i := next(len(live))
			if err := srv.Delete(live[i].rel, live[i].values...); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case r < 30:
			i := next(len(live))
			old := live[i]
			nu := serverTuple{rel: old.rel, values: append([]any(nil), old.values...)}
			nu.values[2] = old.values[2].(int) + 1 // corrected units
			if err := srv.Update(nu.rel, old.values, nu.values); err != nil {
				t.Fatal(err)
			}
			live[i] = nu
		}
	}
	surviving = append(surviving, live...)

	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Deletes == 0 {
		t.Fatal("degenerate run: churn produced no deletes")
	}
	if st.Queued != 0 {
		t.Fatalf("Queued = %d after Flush, want 0", st.Queued)
	}
	snap := srv.CovarSnapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Engine-independent recompute over only the survivors:
	// bitwise (integer data).
	count, sums, moments := recomputeBatch(surviving, features)
	if got := snap.Count(); got != count {
		t.Fatalf("count: got %v, want %v", got, count)
	}
	for i, f := range features {
		for k, g := range features {
			gm, err := snap.SecondMoment(f, g)
			if err != nil {
				t.Fatal(err)
			}
			if gm != moments[i][k] {
				t.Fatalf("moment(%s,%s): got %v, want %v", f, g, gm, moments[i][k])
			}
		}
		m, err := snap.Mean(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := sums[i] / count; m != want {
			t.Fatalf("mean(%s): got %v, want %v", f, m, want)
		}
	}

	// LMFAO batch training on a database of only the survivors
	// must agree with the model trained on the churned snapshot.
	ref := serverSchema(t)
	for _, tp := range surviving {
		if err := ref.Relation(tp.rel).Append(tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	rq, err := ref.Query()
	if err != nil {
		t.Fatal(err)
	}
	mSnap, err := snap.TrainLinReg("units", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	mBatch, err := rq.LinearRegression(Features{Continuous: []string{"price", "area"}}, "units", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mSnap.Intercept()-mBatch.Intercept()) > 1e-9 {
		t.Fatalf("intercept: snapshot %v vs batch %v", mSnap.Intercept(), mBatch.Intercept())
	}
	for _, f := range []string{"price", "area"} {
		a, err := mSnap.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mBatch.Coefficient(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("coefficient(%s): snapshot %v vs batch %v", f, a, b)
		}
	}
}
