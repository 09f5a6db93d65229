package borg

import "testing"

// TestGDMetricsCountTruncation: a linreg training that spends its whole
// iteration budget must show on a scrape — the iteration histogram sees
// every training, the unconverged counter only the truncated one — and
// both series exist before the first training.
func TestGDMetricsCountTruncation(t *testing.T) {
	db := shardedSchema(t)
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	read := func() (trainings uint64, iterations int64, unconverged float64) {
		found := 0
		for _, p := range srv.Metrics().Snapshot() {
			switch p.Name {
			case "borg_model_gd_iterations":
				trainings, iterations = p.Count, p.Sum
				found++
			case "borg_model_gd_unconverged_total":
				unconverged = p.Value
				found++
			}
		}
		if found != 2 {
			t.Fatalf("%d of the 2 gradient-descent series are registered", found)
		}
		return
	}
	if n, _, u := read(); n != 0 || u != 0 {
		t.Fatalf("before any training: %d trainings, %v unconverged", n, u)
	}
	for _, tp := range shardedStream(80, 3, 3) {
		if err := srv.Insert(tp.rel, tp.values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.TrainLinRegGD("units", 1e-3, GDOptions{MaxIters: 2}); err != nil {
		t.Fatal(err)
	}
	full, err := srv.TrainLinRegGD("units", 1e-3, GDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, iters, u := read()
	if n != 2 || u != 1 || iters != int64(2+full.IterationsRun()) {
		t.Fatalf("after a starved and a full training: %d trainings, %d iterations (full ran %d), %v unconverged",
			n, iters, full.IterationsRun(), u)
	}
}
