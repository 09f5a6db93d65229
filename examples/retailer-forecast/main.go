// Retailer forecasting: the paper's running scenario (Figures 2–3).
// Generates the synthetic Retailer database — Inventory joined with
// Item, Stores, Demographics, and Weather — and trains an inventory-
// units regression over all features, then retrains on a feature subset
// in milliseconds by reusing the covariance matrix (Section 1.5).
package main

import (
	"fmt"
	"log"
	"time"

	"borg"
)

func main() {
	ds, err := borg.GenerateDataset("retailer", 2020, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: fact table %d rows\n",
		ds.Name, ds.Database().Relation(ds.Root).Rows())

	start := time.Now()
	model, err := ds.LinearRegression(ds.Feats, ds.Response, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	trainTime := time.Since(start)

	rmse, err := model.TrainingRMSE()
	if err != nil {
		log.Fatal(err)
	}
	prize, _ := model.Coefficient("prize")
	maxtemp, _ := model.Coefficient("maxtemp")
	fmt.Printf("full model (%d cont + %d cat features): RMSE %.3f, trained in %v\n",
		len(ds.Feats.Continuous), len(ds.Feats.Categorical), rmse, trainTime.Round(time.Millisecond))
	fmt.Printf("  prize coefficient %+.4f (planted negative), maxtemp %+.4f (planted positive)\n",
		prize, maxtemp)

	// Model selection: retrain on subsets without touching the data.
	start = time.Now()
	for _, subset := range [][]string{
		{"prize"},
		{"prize", "maxtemp"},
		{"prize", "maxtemp", "sellarea"},
	} {
		sub, err := model.Retrain(borg.Features{Continuous: subset}, 1e-3)
		if err != nil {
			log.Fatal(err)
		}
		c, _ := sub.Coefficient("prize")
		fmt.Printf("  subset %v: prize %+.4f\n", subset, c)
	}
	fmt.Printf("3 subset models retrained from the same moments in %v — no data pass\n",
		time.Since(start).Round(time.Microsecond))
}
