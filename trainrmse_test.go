package borg

import (
	"math"
	"testing"

	"borg/internal/engine"
	"borg/internal/relation"
)

// scored is a trained model that reports its training error from its
// own aggregates.
type scored interface {
	TrainingRMSE() (float64, error)
}

// materialize joins q's relations into one data matrix: the oracle's
// input, and the only place the root package's tests build one.
func materialize(t *testing.T, q *Query) *relation.Relation {
	t.Helper()
	data, err := engine.MaterializeJoin(q.join)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkTrainingRMSE holds m.TrainingRMSE() to the model's RMSE over the
// materialized join within 1e-9·RMS(y), and returns it together with the
// response's standard deviation over that join.
func checkTrainingRMSE(t *testing.T, m scored, data *relation.Relation, response string) (rmse, std float64) {
	t.Helper()
	rmse, err := m.TrainingRMSE()
	if err != nil {
		t.Fatal(err)
	}
	var oracle float64
	switch m := m.(type) {
	case *LinearRegression:
		oracle, err = m.model.RMSE(data)
	case *DecisionTree:
		oracle, err = m.tree.RMSE(data)
	default:
		t.Fatalf("no oracle for %T", m)
	}
	if err != nil {
		t.Fatal(err)
	}
	yc := data.AttrIndex(response)
	var sy, syy float64
	for row := 0; row < data.NumRows(); row++ {
		y := data.Float(yc, row)
		sy, syy = sy+y, syy+y*y
	}
	n := float64(data.NumRows())
	if d := math.Abs(rmse - oracle); d > 1e-9*math.Sqrt(syy/n) {
		t.Fatalf("TrainingRMSE = %v, materialized %v: off by %.3g·RMS(y)", rmse, oracle, d/math.Sqrt(syy/n))
	}
	return rmse, math.Sqrt(syy/n - (sy/n)*(sy/n))
}

// quickstartDB is examples/quickstart's database: units = 10 − price +
// a city effect of ±2, noise-free.
func quickstartDB(t *testing.T) *Query {
	t.Helper()
	db := NewDatabase()
	sales := db.AddRelation("Sales", Cat("item"), Cat("city"), Num("units"))
	items := db.AddRelation("Items", Cat("item"), Num("price"))
	for _, item := range []string{"patty", "onion", "bun", "sausage"} {
		price := map[string]float64{"patty": 6, "onion": 2, "bun": 2, "sausage": 4}[item]
		if err := items.Append(item, price); err != nil {
			t.Fatal(err)
		}
		for city, eff := range map[string]float64{"zurich": 2, "oxford": -2} {
			if err := sales.Append(item, city, 10-price+eff); err != nil {
				t.Fatal(err)
			}
		}
	}
	q, err := db.Query("Sales", "Items")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestTrainingRMSEFromAggregates holds every batch model's TrainingRMSE,
// read from the model's own moments or leaf statistics, to ml's RMSE
// over the materialized join — linear regression, a Retrain subset of
// its moments, and CART — and each RMSE under a bound that says the
// model learned the planted signal (as a share of the response's
// standard deviation).
func TestTrainingRMSEFromAggregates(t *testing.T) {
	type model struct {
		name  string
		train func(q *Query, f Features, response string) (scored, error)
		under float64
	}
	linreg := func(q *Query, f Features, response string) (scored, error) {
		return q.LinearRegression(f, response, 1e-3)
	}
	retrain := func(q *Query, f Features, response string) (scored, error) {
		m, err := q.LinearRegression(f, response, 1e-3)
		if err != nil {
			return nil, err
		}
		return m.Retrain(Features{Continuous: f.Continuous[:2], Categorical: f.Categorical[:1]}, 1e-3)
	}
	cart := func(q *Query, f Features, response string) (scored, error) {
		return q.DecisionTree(f, response, TreeOptions{MaxDepth: 3, MinRows: 50})
	}
	generated := func(name string, seed uint64, sf float64) func(t *testing.T) (*Query, Features, string) {
		return func(t *testing.T) (*Query, Features, string) {
			ds, err := GenerateDataset(name, seed, sf)
			if err != nil {
				t.Fatal(err)
			}
			return ds.Query, ds.Feats, ds.Response
		}
	}
	for _, c := range []struct {
		data   string
		build  func(t *testing.T) (*Query, Features, string)
		models []model
	}{
		{"quickstart", func(t *testing.T) (*Query, Features, string) {
			return quickstartDB(t), Features{Continuous: []string{"price"}, Categorical: []string{"city"}}, "units"
		}, []model{
			// Noise-free: the ridge term alone keeps the fit off 0.
			{"linreg", func(q *Query, f Features, response string) (scored, error) {
				return q.LinearRegression(f, response, 1e-6)
			}, 1e-3},
			{"tree", func(q *Query, f Features, response string) (scored, error) {
				return q.DecisionTree(f, response, TreeOptions{MaxDepth: 3, MinRows: 1})
			}, 1e-3},
		}},
		{"retailer", generated("retailer", 2020, 0.2), []model{{"linreg", linreg, 0.9}, {"retrain", retrain, 0.9}, {"cart", cart, 0.9}}},
		{"favorita", generated("favorita", 2020, 0.1), []model{{"linreg", linreg, 0.9}, {"retrain", retrain, 0.9}, {"cart", cart, 0.9}}},
		// Stars depend on planted user and business averages.
		{"yelp", generated("yelp", 3, 0.03), []model{{"linreg", linreg, 0.9}}},
	} {
		t.Run(c.data, func(t *testing.T) {
			q, f, response := c.build(t)
			data := materialize(t, q)
			for _, m := range c.models {
				t.Run(m.name, func(t *testing.T) {
					trained, err := m.train(q, f, response)
					if err != nil {
						t.Fatal(err)
					}
					rmse, std := checkTrainingRMSE(t, trained, data, response)
					t.Logf("RMSE %.6g, response std %.6g", rmse, std)
					if rmse > m.under*std {
						t.Fatalf("RMSE %v above %v·std(y) = %v", rmse, m.under, m.under*std)
					}
				})
			}
		})
	}
}
