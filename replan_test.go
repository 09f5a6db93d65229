package borg

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
)

// replanChurn drives writer w's slice of the stream into the server,
// deleting ~20% of its own previously inserted Sales rows (per-producer
// FIFO makes the delete always find its target live). The deletion
// schedule is a pure function of (w, position), so survivors() can
// recompute the exact surviving multiset without observing the run.
func replanChurn(t *testing.T, ing Ingestor, stream []serverTuple, w, writers int) {
	t.Helper()
	var live []serverTuple
	state := uint64(w)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := w; i < len(stream); i += writers {
		tp := stream[i]
		if err := ing.Insert(tp.rel, tp.values...); err != nil {
			t.Error(err)
			return
		}
		if tp.rel != "Sales" {
			continue
		}
		live = append(live, tp)
		if next(100) < 20 {
			k := next(len(live))
			if err := ing.Delete(live[k].rel, live[k].values...); err != nil {
				t.Error(err)
				return
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// replanSurvivors replays every writer's deterministic churn schedule
// offline and returns the surviving tuple multiset.
func replanSurvivors(stream []serverTuple, writers int) []serverTuple {
	var out []serverTuple
	for w := 0; w < writers; w++ {
		var live []serverTuple
		state := uint64(w)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		for i := w; i < len(stream); i += writers {
			tp := stream[i]
			if tp.rel != "Sales" {
				out = append(out, tp)
				continue
			}
			live = append(live, tp)
			if next(100) < 20 {
				k := next(len(live))
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		out = append(out, live...)
	}
	return out
}

// recomputeSharded is recomputeBatch for the shardedSchema shape:
// Sales(store,item,units) ⨝ Catalog(store,item,price) ⨝ Stores(store,area).
func recomputeSharded(stream []serverTuple, features []string) (float64, []float64, [][]float64) {
	price := make(map[string]float64)
	area := make(map[string]float64)
	for _, tp := range stream {
		switch tp.rel {
		case "Catalog":
			price[tp.values[0].(string)+"|"+tp.values[1].(string)] = float64(tp.values[2].(int))
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
		p, okP := price[tp.values[0].(string)+"|"+tp.values[1].(string)]
		a, okA := area[tp.values[0].(string)]
		if !okP || !okA {
			continue
		}
		row := []float64{float64(tp.values[2].(int)), p, a}
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

// checkStats compares the snapshot's statistics bitwise against an
// engine-independent recompute (integer data, so exact equality is the
// bar).
func checkStats(t *testing.T, snap *ServerSnapshot, count float64, sums []float64, moments [][]float64, features []string) {
	t.Helper()
	if got := snap.Count(); got != count {
		t.Fatalf("count: got %v, want %v", got, count)
	}
	for i, f := range features {
		m, err := snap.Mean(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := sums[i] / count; m != want {
			t.Fatalf("mean(%s): got %v, want %v", f, m, want)
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
}

// replanReaders spins readers that hammer snapshots across the replan:
// epochs must never go backwards, statistics must never be NaN, and a
// model must train whenever the join is non-empty — a torn epoch (half
// old maintainer, half new) would trip one of these.
func replanReaders(t *testing.T, snapFn func() *ServerSnapshot, stop chan struct{}, wg *sync.WaitGroup, n int) {
	t.Helper()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := snapFn()
				if snap.Epoch() < lastEpoch {
					t.Error("epoch went backwards across replan")
					return
				}
				lastEpoch = snap.Epoch()
				m, err := snap.Mean("price")
				if err != nil && !errors.Is(err, ErrEmptySnapshot) {
					t.Error(err)
					return
				}
				if err == nil && math.IsNaN(m) {
					t.Error("NaN mean across replan")
					return
				}
				if snap.Count() > 0 {
					if _, err := snap.TrainLinReg("units", 1e-3); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
}

// TestServerReplanConcurrent is the replan race certificate: concurrent
// producers (with churn) and readers run across explicit Replan() calls
// on a greedily planned server. The plan starts rooted at the empty-tie
// lexicographic winner (Items), replanning mid-stream moves the root to
// the now-largest Sales, and the final snapshot is bitwise-equal to a
// recompute over the surviving tuples — the maintainer swap lost and
// invented nothing.
func TestServerReplanConcurrent(t *testing.T) {
	// The subtest is named after the one maintainer the serving tier builds.
	t.Run("fivm", testServerReplanConcurrent)
}

func testServerReplanConcurrent(t *testing.T) {
	const writers, readers = 4, 3
	features := []string{"units", "price", "area"}
	stream := serverStream(400, 10, 5)

	db := serverSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	// No Query.Root: greedy planning on empty relations roots at
	// the lexicographically smallest relation, Items.
	srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{BatchSize: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Root; got != "Items" {
		t.Fatalf("initial greedy root: got %s, want Items", got)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			replanChurn(t, srv, stream, w, writers)
		}(w)
	}
	stopRead := make(chan struct{})
	var readWg sync.WaitGroup
	replanReaders(t, srv.CovarSnapshot, stopRead, &readWg, readers)

	// Replan repeatedly while producers and readers run: the
	// first call flips the root to Sales, later ones no-op.
	for i := 0; i < 4; i++ {
		if err := srv.Replan(); err != nil {
			t.Fatal(err)
		}
	}

	wg.Wait()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Replan(); err != nil { // post-churn: root settles on Sales
		t.Fatal(err)
	}
	close(stopRead)
	readWg.Wait()

	st := srv.Stats()
	snap := srv.CovarSnapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Root != "Sales" {
		t.Fatalf("post-replan root: got %s, want Sales", st.Root)
	}
	if st.Replans == 0 {
		t.Fatal("no replans counted despite a root change")
	}
	if st.Drift < 1 {
		t.Fatalf("drift %v < 1", st.Drift)
	}
	count, sums, moments := recomputeBatch(replanSurvivors(stream, writers), features)
	checkStats(t, snap, count, sums, moments, features)
}

// TestServerAutoReplan: with ReplanThreshold set, the server replans by
// itself at a publish boundary once live cardinalities drift past the
// threshold — no explicit Replan() call anywhere.
func TestServerAutoReplan(t *testing.T) {
	features := []string{"units", "price", "area"}
	stream := serverStream(300, 10, 5)

	db := serverSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{
		BatchSize:       16,
		ReplanThreshold: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range stream {
		if err := srv.Insert(tp.rel, tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	snap := srv.CovarSnapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Replans == 0 {
		t.Fatal("auto-replan never fired despite drift past the threshold")
	}
	if st.Root != "Sales" {
		t.Fatalf("auto-replanned root: got %s, want Sales", st.Root)
	}
	// Drift is measured against the new root, so it settles back near 1.
	if st.Drift != 1 {
		t.Fatalf("post-auto-replan drift: got %v, want 1 (Sales is largest)", st.Drift)
	}
	count, sums, moments := recomputeBatch(stream, features)
	checkStats(t, snap, count, sums, moments, features)
}

// TestShardedReplanConcurrent runs the same certificate on a 3-shard
// tier: concurrent partitioned producers and merged readers across a
// global Replan(). All shards must agree on the new root and the merged
// snapshot must equal the survivor recompute.
func TestShardedReplanConcurrent(t *testing.T) {
	const writers, readers = 3, 3
	features := []string{"units", "price", "area"}
	stream := shardedStream(400, 6, 4)

	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded(features, ShardOptions{
		ServerOptions: ServerOptions{
			BatchSize: 13,
		},
		Shards:      3,
		PartitionBy: "store",
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			replanChurn(t, srv, stream, w, writers)
		}(w)
	}
	stopRead := make(chan struct{})
	var readWg sync.WaitGroup
	replanReaders(t, srv.CovarSnapshot, stopRead, &readWg, readers)

	for i := 0; i < 3; i++ {
		if err := srv.Replan(); err != nil {
			t.Fatal(err)
		}
	}

	wg.Wait()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Replan(); err != nil {
		t.Fatal(err)
	}
	close(stopRead)
	readWg.Wait()

	st := srv.Stats()
	snap := srv.CovarSnapshot()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Root != "Sales" {
		t.Fatalf("global post-replan root: got %s, want Sales", st.Root)
	}
	if st.Replans == 0 {
		t.Fatal("no replans counted across the tier")
	}
	for i, row := range st.Shards {
		if row.Root != st.Root {
			t.Fatalf("shard %d root %s disagrees with global plan %s", i, row.Root, st.Root)
		}
	}
	count, sums, moments := recomputeSharded(replanSurvivors(stream, writers), features)
	checkStats(t, snap, count, sums, moments, features)
}

// TestReplanReenablesAutoReplan: an explicit Replan leaves every shard
// greedy-planned — even when it keeps the root pinned at construction —
// so ReplanThreshold fires once the fact table outgrows that root.
func TestReplanReenablesAutoReplan(t *testing.T) {
	features := []string{"units", "price", "area"}
	stream := shardedStream(300, 6, 4)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].rel != "Sales" && stream[j].rel == "Sales" })
	for _, shards := range []int{1, 3} {
		q, err := shardedSchema(t).Query()
		if err != nil {
			t.Fatal(err)
		}
		q.Root = "Catalog"
		srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{ReplanThreshold: 2}, Shards: shards, PartitionBy: "store"})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i, tp := range stream {
			if i == 6*4+6+3 { // the dimensions and 3 sales: Catalog is still the largest relation
				if err := srv.Replan(); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Insert(tp.rel, tp.values...); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Root != "Sales" || st.Replans == 0 || st.Drift != 1 {
			t.Fatalf("%d shards: root %s, %d replans, drift %v; want Sales, at least 1, 1", shards, st.Root, st.Replans, st.Drift)
		}
		count, sums, moments := recomputeSharded(stream, features)
		checkStats(t, srv.CovarSnapshot(), count, sums, moments, features)
	}
}
