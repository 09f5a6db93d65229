// Decision trees over joins: every CART node evaluates one aggregate
// batch (Section 2.2) through LMFAO; the data matrix never exists.
package main

import (
	"fmt"
	"log"

	"borg"
)

func main() {
	ds, err := borg.GenerateDataset("favorita", 2020, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: predicting %s over a %d-relation join\n",
		ds.Name, ds.Response, 6)

	tree, err := ds.DecisionTree(ds.Feats, ds.Response, borg.TreeOptions{
		MaxDepth:      3,
		MinRows:       50,
		ThresholdsPer: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	rmse, err := tree.TrainingRMSE()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained a depth-%d tree; %d node batches evaluated; RMSE %.3f\n",
		tree.Depth(), tree.Nodes(), rmse)
	fmt.Println("each node cost one LMFAO batch over the base relations;")
	fmt.Println("candidate splits for all features were scored from shared scans")
}
