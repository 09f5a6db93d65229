// Quickstart: build a tiny relational database, join it, and train a
// linear regression model WITHOUT ever materializing the join — the
// structure-aware flow of the paper's Figure 2 (bottom).
package main

import (
	"fmt"
	"log"

	"borg"
)

func main() {
	db := borg.NewDatabase()

	// Two relations joined on `item` (attributes with equal names join).
	sales := db.AddRelation("Sales",
		borg.Cat("item"), borg.Cat("city"), borg.Num("units"))
	items := db.AddRelation("Items",
		borg.Cat("item"), borg.Num("price"))

	for _, row := range []struct {
		item  string
		price float64
	}{
		{"patty", 6}, {"onion", 2}, {"bun", 2}, {"sausage", 4},
	} {
		if err := items.Append(row.item, row.price); err != nil {
			log.Fatal(err)
		}
	}
	// units = 10 - price + city effect (zurich +2, oxford -2)
	for _, item := range []string{"patty", "onion", "bun", "sausage"} {
		price := map[string]float64{"patty": 6, "onion": 2, "bun": 2, "sausage": 4}[item]
		for city, eff := range map[string]float64{"zurich": 2.0, "oxford": -2.0} {
			if err := sales.Append(item, city, 10-price+eff); err != nil {
				log.Fatal(err)
			}
		}
	}

	q, err := db.Query("Sales", "Items")
	if err != nil {
		log.Fatal(err)
	}
	model, err := q.LinearRegression(borg.Features{
		Continuous:  []string{"price"},
		Categorical: []string{"city"},
	}, "units", 1e-6)
	if err != nil {
		log.Fatal(err)
	}

	coef, _ := model.Coefficient("price")
	zurich, _ := model.CategoryCoefficient("city", "zurich")
	oxford, _ := model.CategoryCoefficient("city", "oxford")
	rmse, _ := model.TrainingRMSE()
	fmt.Printf("units ≈ %.2f %+.2f·price  (city: zurich %+.2f, oxford %+.2f)\n",
		model.Intercept(), coef, zurich, oxford)
	fmt.Printf("training RMSE: %.4f (signal is noise-free, so ≈ 0)\n", rmse)
	fmt.Println("the join was never materialized: training consumed one aggregate batch")
}
