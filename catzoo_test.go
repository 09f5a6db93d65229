package borg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"borg/internal/ml"
	"borg/internal/relation"
	"borg/internal/ring"
)

// The categorical-zoo equivalence certificate: a live server maintaining
// the cofactor ring under random insert/delete/update churn must train
// EXACTLY the models a batch recomputation over the surviving tuples
// trains — unsharded and 3-shard sharded, with concurrent readers under
// -race. All continuous values are dyadic
// rationals (k/2^10), so every maintained sum and product is exactly
// representable and churned tuples cancel to exact zero; the 1e-9
// tolerance covers only solver-side summation-order noise.

const (
	czItems  = 5
	czStores = 3
)

var czPromos = []string{"none", "tv", "web"}

// czCont and czCats are the maintained feature lists, in order.
var (
	czCont = []string{"units", "price", "area"}
	czCats = []string{"item", "store", "promo"}
)

func catZooSchema(t *testing.T) (*Database, *Query) {
	t.Helper()
	db := NewDatabase()
	db.AddRelation("Sales", Cat("item"), Cat("store"), Cat("promo"), Num("units"))
	db.AddRelation("Items", Cat("item"), Cat("store"), Num("price"))
	db.AddRelation("Stores", Cat("store"), Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// czSalesRow is one mirrored Sales tuple (exact values, so a later
// delete retracts bitwise-identically).
type czSalesRow struct {
	item, store, promo string
	units              float64
}

// czState mirrors the live server's logical content for the batch
// recomputation.
type czState struct {
	prices map[[2]string]float64 // (item, store) -> current price
	areas  map[string]float64
	fixed  []czSalesRow // prelude rows, never churned
	rows   []czSalesRow // churnable rows, current survivors
}

// czPrelude streams the dimension tables and one guaranteed-survivor
// Sales row per promo value into the live server, mirroring them into
// st. Every categorical value is interned here, in a fixed order — the
// batch reference database replays the identical order, so dictionary
// codes (and with them one-hot design layouts and tree split codes)
// align between live and batch models.
func czPrelude(t *testing.T, srv Ingestor, st *czState, rnd *rand.Rand) {
	t.Helper()
	st.prices = make(map[[2]string]float64)
	st.areas = make(map[string]float64)
	for i := 0; i < czItems; i++ {
		for s := 0; s < czStores; s++ {
			item, store := fmt.Sprintf("item%d", i), fmt.Sprintf("store%d", s)
			price := float64(3200+rnd.Intn(1<<12)) / 64.0
			if err := srv.Insert("Items", item, store, price); err != nil {
				t.Fatal(err)
			}
			st.prices[[2]string{item, store}] = price
		}
	}
	for s := 0; s < czStores; s++ {
		store := fmt.Sprintf("store%d", s)
		area := float64(50 + 10*s)
		if err := srv.Insert("Stores", store, area); err != nil {
			t.Fatal(err)
		}
		st.areas[store] = area
	}
	for p, promo := range czPromos {
		row := czSalesRow{"item0", "store0", promo, float64(5120+1024*p) / 1024.0}
		if err := srv.Insert("Sales", row.item, row.store, row.promo, row.units); err != nil {
			t.Fatal(err)
		}
		st.fixed = append(st.fixed, row)
	}
}

// czChurn applies n random Sales inserts/deletes/updates (plus
// occasional Items price corrections) to the live server and the
// mirror.
func czChurn(t *testing.T, srv Ingestor, st *czState, rnd *rand.Rand, n int) {
	t.Helper()
	randRow := func() czSalesRow {
		item := fmt.Sprintf("item%d", rnd.Intn(czItems))
		if rnd.Float64() < 0.1 {
			item = "ghost" // dangling: no Items partner, never joins
		}
		return czSalesRow{
			item:  item,
			store: fmt.Sprintf("store%d", rnd.Intn(czStores)),
			promo: czPromos[rnd.Intn(len(czPromos))],
			units: float64(rnd.Intn(1<<20)) / 1024.0,
		}
	}
	for op := 0; op < n; op++ {
		r := rnd.Float64()
		switch {
		case r < 0.07 && len(st.prices) > 0:
			// Correct a random item's price in place.
			keys := make([][2]string, 0, len(st.prices))
			for k := range st.prices {
				keys = append(keys, k)
			}
			// Map order is random; pick deterministically by sorting on
			// the joined key string.
			best := keys[0]
			for _, k := range keys[1:] {
				if k[0]+"|"+k[1] < best[0]+"|"+best[1] {
					best = k
				}
			}
			old := st.prices[best]
			nw := float64(3200+rnd.Intn(1<<12)) / 64.0
			if err := srv.Update("Items", []any{best[0], best[1], old}, []any{best[0], best[1], nw}); err != nil {
				t.Fatal(err)
			}
			st.prices[best] = nw
		case r < 0.55 || len(st.rows) == 0:
			row := randRow()
			if err := srv.Insert("Sales", row.item, row.store, row.promo, row.units); err != nil {
				t.Fatal(err)
			}
			st.rows = append(st.rows, row)
		case r < 0.8:
			i := rnd.Intn(len(st.rows))
			row := st.rows[i]
			if err := srv.Delete("Sales", row.item, row.store, row.promo, row.units); err != nil {
				t.Fatal(err)
			}
			st.rows = append(st.rows[:i], st.rows[i+1:]...)
		default:
			i := rnd.Intn(len(st.rows))
			old, nw := st.rows[i], randRow()
			// Sharded servers reject updates that would move a tuple
			// across partitions; keep the partition attribute fixed.
			nw.store = old.store
			if err := srv.Update("Sales",
				[]any{old.item, old.store, old.promo, old.units},
				[]any{nw.item, nw.store, nw.promo, nw.units}); err != nil {
				t.Fatal(err)
			}
			st.rows[i] = nw
		}
	}
}

// czReference rebuilds the surviving state as a fresh batch database,
// replaying the prelude's interning order so dictionary codes match the
// live server's.
func czReference(t *testing.T, st *czState) (*Database, *Query) {
	t.Helper()
	db, q := catZooSchema(t)
	for i := 0; i < czItems; i++ {
		for s := 0; s < czStores; s++ {
			item, store := fmt.Sprintf("item%d", i), fmt.Sprintf("store%d", s)
			if err := db.Relation("Items").Append(item, store, st.prices[[2]string{item, store}]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < czStores; s++ {
		store := fmt.Sprintf("store%d", s)
		if err := db.Relation("Stores").Append(store, st.areas[store]); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range append(append([]czSalesRow(nil), st.fixed...), st.rows...) {
		if err := db.Relation("Sales").Append(row.item, row.store, row.promo, row.units); err != nil {
			t.Fatal(err)
		}
	}
	return db, q
}

// czJoined enumerates the surviving joined rows as (units, price, area,
// item, store, promo).
func (st *czState) joined() []czSalesRow {
	var out []czSalesRow
	for _, row := range append(append([]czSalesRow(nil), st.fixed...), st.rows...) {
		if _, ok := st.prices[[2]string{row.item, row.store}]; ok {
			out = append(out, row)
		}
	}
	return out
}

func czClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func czCompareTheta(t *testing.T, what string, live, ref []float64, tol float64) {
	t.Helper()
	if len(live) != len(ref) {
		t.Fatalf("%s: theta length %d vs batch %d", what, len(live), len(ref))
	}
	for i := range live {
		if !czClose(live[i], ref[i], tol) {
			t.Fatalf("%s: theta[%d] = %v, batch %v", what, i, live[i], ref[i])
		}
	}
}

// TestCatZooChurnEquivalence is the tentpole acceptance test: unsharded
// and 3-shard, a cofactor server under random churn with concurrent
// readers trains ChowLiu, categorical trees, LS-SVMs, one-hot linear
// regressions, and varying-coefficients polynomial regressions
// identical (1e-9) to batch recomputations over the survivors.
func TestCatZooChurnEquivalence(t *testing.T) {
	features := append(append([]string(nil), czCont...), czCats...)
	const nOps = 240
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			_, q := catZooSchema(t)
			opt := ServerOptions{BatchSize: 7, Payload: PayloadCofactor}
			srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: opt, Shards: shards, PartitionBy: "store"})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if got := srv.CatFeatures(); strings.Join(got, ",") != strings.Join(czCats, ",") {
				t.Fatalf("CatFeatures = %v, want %v", got, czCats)
			}
			if srv.Payload() != PayloadCofactor {
				t.Fatalf("Payload = %v, want cofactor", srv.Payload())
			}

			rnd := rand.New(rand.NewSource(int64(42 + shards)))
			st := &czState{}
			czPrelude(t, srv, st, rnd)

			// Concurrent readers train mid-churn — the race
			// certificate for the cofactor snapshot path. Results are
			// discarded; transient ErrEmptySnapshot is fine.
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						_ = srv.Count()
						_, _ = srv.TrainChowLiu()
						_, _ = srv.TrainSVM("units", 1e-3)
						_, _ = srv.TrainCTree("units", TreeOptions{MaxDepth: 3})
					}
				}()
			}
			czChurn(t, srv, st, rnd, nOps)
			close(done)
			wg.Wait()
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := srv.Err(); err != nil {
				t.Fatal(err)
			}

			joined := st.joined()
			if got, want := srv.Count(), float64(len(joined)); got != want {
				t.Fatalf("Count = %v, want %v survivors", got, want)
			}

			refDB, refQ := czReference(t, st)
			_ = refDB
			feats := Features{Continuous: []string{"price", "area"}, Categorical: czCats}

			// One-hot linear regression: same gradient-descent trainer
			// over live cofactor projections vs the LMFAO batch.
			liveLin, err := srv.TrainLinRegGD("units", 1e-2, GDOptions{})
			if err != nil {
				t.Fatal(err)
			}
			refLin, err := refQ.LinearRegression(feats, "units", 1e-2)
			if err != nil {
				t.Fatal(err)
			}
			czCompareTheta(t, "linreg", liveLin.model.Theta, refLin.model.Theta, 1e-9)
			probeVals := map[string]float64{"price": 55.25, "area": 60}
			probeCats := map[string]string{"item": "item1", "store": "store2", "promo": "tv"}
			lp, err := liveLin.PredictCat(probeVals, probeCats)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := refLin.PredictCat(probeVals, probeCats)
			if err != nil {
				t.Fatal(err)
			}
			if !czClose(lp, rp, 1e-9) {
				t.Fatalf("linreg PredictCat = %v, batch %v", lp, rp)
			}

			// LS-SVM: closed-form solve over the identical one-hot
			// moment matrix.
			liveSVM, err := srv.TrainSVM("units", 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			refSigma, err := refQ.covariance(feats, "units")
			if err != nil {
				t.Fatal(err)
			}
			refSVM, err := ml.TrainLSSVM(refSigma, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			czCompareTheta(t, "svm", liveSVM.model.Theta, refSVM.Theta, 1e-9)
			dv, err := liveSVM.DecisionValue(probeVals, probeCats)
			if err != nil {
				t.Fatal(err)
			}
			x, codes, err := resolveDesignInputs(refSVM.Cont, refSVM.Cat, refQ.dicts(czCats), probeVals, probeCats)
			if err != nil {
				t.Fatal(err)
			}
			if rdv := refSVM.DecisionValue(x, codes); !czClose(dv, rdv, 1e-9) {
				t.Fatalf("svm DecisionValue = %v, batch %v", dv, rdv)
			}
			cls, err := liveSVM.Classify(probeVals, probeCats)
			if err != nil {
				t.Fatal(err)
			}
			if cls != 1 && cls != -1 {
				t.Fatalf("Classify = %v, want ±1", cls)
			}

			// Chow–Liu: pairwise MI from cofactor group counts vs the
			// LMFAO mutual-information batch; integer counts make both
			// sides exact.
			liveEdges, err := srv.TrainChowLiu()
			if err != nil {
				t.Fatal(err)
			}
			refEdges, err := refQ.ChowLiu(czCats)
			if err != nil {
				t.Fatal(err)
			}
			if len(liveEdges) != len(refEdges) {
				t.Fatalf("chowliu: %d edges, batch %d", len(liveEdges), len(refEdges))
			}
			for i := range liveEdges {
				if liveEdges[i].A != refEdges[i].A || liveEdges[i].B != refEdges[i].B {
					t.Fatalf("chowliu edge %d = %s-%s, batch %s-%s", i, liveEdges[i].A, liveEdges[i].B, refEdges[i].A, refEdges[i].B)
				}
				if !czClose(liveEdges[i].MI, refEdges[i].MI, 1e-9) {
					t.Fatalf("chowliu MI %d = %v, batch %v", i, liveEdges[i].MI, refEdges[i].MI)
				}
			}

			// Categorical regression tree: cofactor group folds vs
			// per-node LMFAO batches; random dyadic responses make
			// every best split unique, so the trees are identical.
			liveTree, err := srv.TrainCTree("units", TreeOptions{MaxDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			refTree, err := refQ.DecisionTree(Features{Categorical: czCats}, "units", TreeOptions{MaxDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			if liveTree.Nodes() != refTree.Nodes() || liveTree.Depth() != refTree.Depth() {
				t.Fatalf("ctree shape = (%d nodes, depth %d), batch (%d, %d)",
					liveTree.Nodes(), liveTree.Depth(), refTree.Nodes(), refTree.Depth())
			}

			// Both served models score themselves on the epoch they were
			// trained on: their TrainingRMSE matches the materialized
			// survivors'.
			survivors := materialize(t, refQ)
			checkTrainingRMSE(t, liveLin, survivors, "units")
			checkTrainingRMSE(t, liveTree, survivors, "units")

			// Varying-coefficients polynomial regression vs a
			// hand-folded cofactor over the joined survivors — an
			// engine-free ground truth for the whole cofactor pipeline.
			livePoly, err := srv.TrainPolyReg("units", 1e-2)
			if err != nil {
				t.Fatal(err)
			}
			cr := ring.CofactorRing{N: len(czCont), K: len(czCats)}
			acc := cr.Zero()
			dicts := refQ.dicts(czCats)
			for _, row := range joined {
				vals := []float64{row.units, st.prices[[2]string{row.item, row.store}], st.areas[row.store]}
				codes := make([]int32, len(czCats))
				for k, attr := range czCats {
					v := []string{row.item, row.store, row.promo}[k]
					code, ok := lookupCode(dicts, attr, v)
					if !ok {
						t.Fatalf("no code for %s=%q", attr, v)
					}
					codes[k] = code
				}
				cr.AddInPlace(acc, cr.LiftCat([]int{0, 1, 2}, vals, []int{0, 1, 2}, codes))
			}
			refPoly, err := ml.TrainCatPolyFromCofactor(czCont, czCats, "units", acc, 1e-2)
			if err != nil {
				t.Fatal(err)
			}
			czCompareTheta(t, "catpoly", livePoly.cat.Theta, refPoly.Theta, 1e-9)
			pp, err := livePoly.PredictCat(probeVals, probeCats)
			if err != nil {
				t.Fatal(err)
			}
			if rpp := refPoly.PredictVec([]float64{probeVals["price"], probeVals["area"]}, mustCodes(t, dicts, probeCats)); !czClose(pp, rpp, 1e-9) {
				t.Fatalf("catpoly PredictCat = %v, batch %v", pp, rpp)
			}
		})
	}
}

// mustCodes resolves the probe's category strings in czCats order.
func mustCodes(t *testing.T, dicts map[string]*relation.Dict, cats map[string]string) []int32 {
	t.Helper()
	codes := make([]int32, len(czCats))
	for k, attr := range czCats {
		code, ok := lookupCode(dicts, attr, cats[attr])
		if !ok {
			t.Fatalf("no code for %s=%q", attr, cats[attr])
		}
		codes[k] = code
	}
	return codes
}

// TestCatZooPayloadGates certifies the typed-error contract per model
// kind: a kind whose ring payload the server does not maintain refuses
// with ErrPayloadNotMaintained, and every kind on an empty cofactor join
// refuses with ErrEmptySnapshot — never NaN parameters.
func TestCatZooPayloadGates(t *testing.T) {
	features := append(append([]string(nil), czCont...), czCats...)

	t.Run("covar", func(t *testing.T) {
		_, q := catZooSchema(t)
		srv, err := q.ServeSharded(czCont, ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if srv.Payload() != PayloadCovar {
			t.Fatalf("Payload = %v, want covar", srv.Payload())
		}
		if err := srv.Insert("Sales", "a", "s", "none", 1.0); err != nil {
			t.Fatal(err)
		}
		if err := srv.Insert("Items", "a", "s", 2.0); err != nil {
			t.Fatal(err)
		}
		if err := srv.Insert("Stores", "s", 3.0); err != nil {
			t.Fatal(err)
		}
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.TrainPolyReg("units", 1e-3); !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainPolyReg on covar = %v, want ErrPayloadNotMaintained", err)
		}
		if _, err := srv.TrainChowLiu(); !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainChowLiu on covar = %v, want ErrPayloadNotMaintained", err)
		}
		if _, err := srv.TrainCTree("units", TreeOptions{}); !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainCTree on covar = %v, want ErrPayloadNotMaintained", err)
		}
		if _, err := srv.TrainSVM("units", 1e-3); !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainSVM on covar = %v, want ErrPayloadNotMaintained", err)
		}
	})

	t.Run("poly2", func(t *testing.T) {
		_, q := catZooSchema(t)
		srv, err := q.ServeSharded(czCont, ShardOptions{ServerOptions: ServerOptions{Payload: PayloadPoly2}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if srv.Payload() != PayloadPoly2 {
			t.Fatalf("Payload = %v, want poly2", srv.Payload())
		}
		if _, err := srv.TrainChowLiu(); !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainChowLiu on poly2 = %v, want ErrPayloadNotMaintained", err)
		}
		if _, err := srv.TrainSVM("units", 1e-3); !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainSVM on poly2 = %v, want ErrPayloadNotMaintained", err)
		}
	})

	t.Run("cofactor-empty", func(t *testing.T) {
		_, q := catZooSchema(t)
		srv, err := q.ServeSharded(features, ShardOptions{ServerOptions: ServerOptions{Payload: PayloadCofactor}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.TrainChowLiu(); !errors.Is(err, ErrEmptySnapshot) && !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainChowLiu on empty = %v, want ErrEmptySnapshot", err)
		}
		if _, err := srv.TrainCTree("units", TreeOptions{}); !errors.Is(err, ErrEmptySnapshot) && !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainCTree on empty = %v, want ErrEmptySnapshot", err)
		}
		if _, err := srv.TrainSVM("units", 1e-3); !errors.Is(err, ErrEmptySnapshot) && !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainSVM on empty = %v, want ErrEmptySnapshot", err)
		}
		if _, err := srv.TrainLinRegGD("units", 1e-3, GDOptions{}); !errors.Is(err, ErrEmptySnapshot) {
			t.Fatalf("TrainLinRegGD on empty = %v, want ErrEmptySnapshot", err)
		}
		if _, err := srv.TrainPolyReg("units", 1e-3); !errors.Is(err, ErrEmptySnapshot) && !errors.Is(err, ErrPayloadNotMaintained) {
			t.Fatalf("TrainPolyReg on empty = %v, want ErrEmptySnapshot", err)
		}
	})

	t.Run("categorical-features-need-cofactor", func(t *testing.T) {
		_, q := catZooSchema(t)
		if _, err := q.ServeSharded(features, ShardOptions{}); err == nil || !strings.Contains(err.Error(), "categorical") {
			t.Fatalf("Serve with categorical features on covar payload = %v, want a categorical-feature error", err)
		}
	})
}

// TestFacadeErrorsNameAvailable pins the PR's bugfix satellite: a bad
// pinned root and an unknown snapshot feature both name what IS
// available instead of failing opaquely.
func TestFacadeErrorsNameAvailable(t *testing.T) {
	_, q := catZooSchema(t)
	q.Root = "Nope"
	if _, err := q.ServeSharded(czCont, ShardOptions{}); err == nil ||
		!strings.Contains(err.Error(), "the join's relations are Sales, Items, Stores") {
		t.Fatalf("bad root error = %v, want the available relations named", err)
	}
	q.Root = ""
	srv, err := q.ServeSharded(czCont, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.CovarSnapshot().Mean("ghost"); err == nil ||
		!strings.Contains(err.Error(), "the maintained features are units, price, area") {
		t.Fatalf("unknown feature error = %v, want the maintained features named", err)
	}
}
