package borg

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"borg/internal/datagen"
	"borg/internal/ml"
	"borg/internal/relation"
)

// zooKinds is a zoo round: every model kind once, in the order the
// end-to-end benchmark trains them.
var zooKinds = []string{"linreg", "pca", "kmeans", "polyreg", "chowliu", "ctree", "svm"}

// tenantZooServer serves the Tenant schema (stores × 25 catalog items,
// Zipf-hot stores) with the cofactor payload over the given shards,
// loaded with the generator's first sales fact rows: each (item, store)
// pair sold is one live cofactor group. It returns the sales rows too.
func tenantZooServer(tb testing.TB, shards, stores, sales int) (*ShardedServer, [][]any) {
	tb.Helper()
	d := datagen.Tenant(7, float64(stores)/64)
	db := NewDatabase()
	rows := make(map[string][][]any)
	for _, name := range d.StreamOrder {
		rel := d.DB.Relation(name)
		var fields []Field
		for _, a := range rel.Attrs() {
			fields = append(fields, Field{Name: a.Name, Categorical: a.Type == relation.Category})
		}
		db.AddRelation(name, fields...)
		n := rel.NumRows()
		if name == d.Root {
			n = min(n, sales)
		}
		for i := 0; i < n; i++ {
			row := make([]any, rel.NumAttrs())
			for c, v := range rel.Row(i) {
				row[c] = v.F
				if col := rel.Col(c); col.Type == relation.Category {
					row[c] = col.Dict.Name(v.C)
				}
			}
			rows[name] = append(rows[name], row)
		}
	}
	q, err := db.Query("Sales", "Catalog", "Stores")
	if err != nil {
		tb.Fatal(err)
	}
	q.Root = d.Root
	srv, err := q.ServeSharded([]string{"price", "sellarea", "footfall", "units", "item", "store"},
		ShardOptions{ServerOptions: ServerOptions{Payload: PayloadCofactor}, Shards: shards, PartitionBy: "store"})
	if err != nil {
		tb.Fatal(err)
	}
	// One relation at a time, each behind a barrier: the published
	// statistics are then a function of the rows alone, however the
	// writers batch them.
	for _, name := range d.StreamOrder {
		for _, row := range rows[name] {
			if err := srv.Insert(name, row...); err != nil {
				tb.Fatal(err)
			}
		}
		if err := srv.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	return srv, rows[d.Root]
}

// trainZooKind trains one kind off s and returns what it learned, less
// the epoch stamp. A failure is reported through tb.Errorf, so that it
// may run on any goroutine.
func trainZooKind(tb testing.TB, s *ServerSnapshot, kind string) any {
	var (
		v   any
		err error
	)
	switch kind {
	case "linreg":
		var m *LinearRegression
		if m, err = s.TrainLinRegGD("units", 1e-3, GDOptions{MaxIters: 5000}); err == nil {
			v = m.model
		}
	case "pca":
		var m *PCAResult
		if m, err = s.TrainPCA(2); err == nil {
			v = []any{m.Components, m.Eigenvalues, m.Means, m.Count}
		}
	case "kmeans":
		var m *KMeansSeeding
		if m, err = s.KMeansSeeds(4); err == nil {
			v = []any{m.Centers, m.TotalVariance, m.Count}
		}
	case "polyreg":
		var m *PolyRegression
		if m, err = s.TrainPolyReg("units", 1e-3); err == nil {
			v = m.cat
		}
	case "chowliu":
		v, err = s.TrainChowLiu()
	case "ctree":
		var m *DecisionTree
		if m, err = s.TrainCTree("units", TreeOptions{MaxDepth: 3}); err == nil {
			v = m.tree
		}
	case "svm":
		var m *SVMClassifier
		if m, err = s.TrainSVM("units", 1e-3); err == nil {
			v = m.model
		}
	}
	if err != nil {
		tb.Errorf("%s: %v", kind, err)
	}
	return v
}

// TestZooDerivesOncePerEpoch: eight goroutines that train all seven kinds
// at once on one fresh cofactor epoch build its group layout once and
// its moment matrix once, write into neither, and learn, kind by kind,
// bitwise what that kind learns alone — in reverse kind order, on an
// independently built identical epoch.
func TestZooDerivesOncePerEpoch(t *testing.T) {
	want := map[any]int{layoutKey{}: 1, sigmaKey("units"): 1}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			srv, _ := tenantZooServer(t, shards, 64, 12000)
			defer srv.Close()
			ref, _ := tenantZooServer(t, shards, 64, 12000)
			defer ref.Close()
			snap, refSnap := srv.CovarSnapshot(), ref.CovarSnapshot()
			if g := snap.Cofactor().NumGroups(); g < 1000 {
				t.Fatalf("the epoch has %d cofactor groups, want at least 1000", g)
			}
			if !snap.Cofactor().ApproxEqual(refSnap.Cofactor(), 0) {
				t.Fatal("two servers fed the same rows published different epochs")
			}

			var mu sync.Mutex
			derived := make(map[any]int)
			onDerive = func(key any) {
				mu.Lock()
				derived[key]++
				mu.Unlock()
			}
			defer func() { onDerive = nil }()
			const readers = 8
			models := make([][]any, readers)
			var wg sync.WaitGroup
			for r := range models {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, kind := range zooKinds {
						models[r] = append(models[r], trainZooKind(t, snap, kind))
					}
				}()
			}
			wg.Wait()
			if !maps.Equal(derived, want) {
				t.Fatalf("%d concurrent rounds derived %v, want %v", readers, derived, want)
			}
			fresh := ml.NewCatLayout(snap.snap.Cofactor())
			if !reflect.DeepEqual(snap.layout(), fresh) {
				t.Fatal("a trainer wrote into the epoch's shared layout")
			}
			sigma, err := snap.sigma("units")
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := fresh.Sigma(snap.features, snap.catFeatures, "units"); !reflect.DeepEqual(sigma, again) {
				t.Fatal("a trainer wrote into the epoch's shared moment matrix")
			}

			// svm comes first here: the moment matrix it reads must be
			// the one the epoch shares, derived on its behalf.
			clear(derived)
			for i := len(zooKinds) - 1; i >= 0; i-- {
				kind := zooKinds[i]
				alone := trainZooKind(t, refSnap, kind)
				if kind == "svm" && derived[sigmaKey("units")] != 1 {
					t.Fatalf("svm alone on a fresh epoch derived %v: it did not read the shared moment matrix", derived)
				}
				for r := range models {
					if !reflect.DeepEqual(models[r][i], alone) {
						t.Fatalf("%s: reader %d learned\n%+v\nalone\n%+v", kind, r, models[r][i], alone)
					}
				}
			}
			if !maps.Equal(derived, want) {
				t.Fatalf("a round alone derived %v, want %v", derived, want)
			}
		})
	}
}

// BenchmarkCofactorZooRound times one zoo round of the tenant workload:
// a fresh merged epoch of a 2-shard Tenant server at about 5 000
// cofactor groups, then the shard fold and all seven kinds trained off
// it — model_p50_ms of tenant_cofactor_2shard, without the load. It
// reports where a round's time goes, as a mean per round: fold-ms (the
// merged snapshot), derive-ms (the epoch's layout and moment matrix,
// which the first trainer pays in a served round) and one <kind>-ms per
// model kind, training alone.
func BenchmarkCofactorZooRound(b *testing.B) {
	srv, sales := tenantZooServer(b, 2, 200, 60000)
	defer srv.Close()
	b.ReportMetric(float64(srv.CovarSnapshot().Cofactor().NumGroups()), "groups")
	var fold, derive time.Duration
	per := make([]time.Duration, len(zooKinds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		row := sales[i%len(sales)] // retract a sale and restore it: a new epoch
		if err := srv.Delete("Sales", row...); err != nil {
			b.Fatal(err)
		}
		if err := srv.Insert("Sales", row...); err != nil {
			b.Fatal(err)
		}
		if err := srv.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		snap := srv.CovarSnapshot()
		lap := time.Now()
		fold += lap.Sub(start)
		if _, err := snap.sigma("units"); err != nil {
			b.Fatal(err)
		}
		now := time.Now()
		derive, lap = derive+now.Sub(lap), now
		for k, kind := range zooKinds {
			trainZooKind(b, snap, kind)
			now = time.Now()
			per[k], lap = per[k]+now.Sub(lap), now
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/round")
	b.ReportMetric(ms(fold), "fold-ms")
	b.ReportMetric(ms(derive), "derive-ms")
	for k, kind := range zooKinds {
		b.ReportMetric(ms(per[k]), kind+"-ms")
	}
}
