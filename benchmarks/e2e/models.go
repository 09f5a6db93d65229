package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"borg"
)

// zooKinds are the model kinds of the snapshot zoo, in the order a zoo
// round trains them.
var zooKinds = []string{"linreg", "pca", "kmeans", "polyreg", "chowliu", "ctree", "svm"}

// trainer makes every Train* call of the benchmark: it puts a span
// around the call, sums the time per kind for the ml.train_ms rows, and
// checks that the model that came back is finite.
type trainer struct {
	rc *runCtx
	// linregIters bounds gradient descent so that a training is a fixed
	// amount of work; 0 keeps the facade's default budget.
	linregIters int

	mu  sync.Mutex
	sum map[string]time.Duration
	n   map[string]int
}

func newTrainer(rc *runCtx) *trainer {
	return &trainer{rc: rc, sum: make(map[string]time.Duration), n: make(map[string]int)}
}

func (t *trainer) train(parent int, snap *borg.ServerSnapshot, kind, response string) error {
	sp := t.rc.tr.begin(parent, "ml.train."+kind)
	t0 := time.Now()
	ok, err := trainKind(snap, kind, response, t.linregIters)
	d := time.Since(t0)
	t.rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("train %s: %w", kind, err)
	}
	if !ok {
		return fmt.Errorf("train %s: the model is not finite", kind)
	}
	t.mu.Lock()
	t.sum[kind] += d
	t.n[kind]++
	t.mu.Unlock()
	return nil
}

// layer reports the mean time of a training per kind.
func (t *trainer) layer(res *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for kind, n := range t.n {
		res.layer("ml.train_ms."+kind, ms(t.sum[kind])/float64(n), n)
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// trainKind trains one model off snap and reports whether what it
// learned is finite.
func trainKind(snap *borg.ServerSnapshot, kind, response string, linregIters int) (bool, error) {
	switch kind {
	case "linreg":
		m, err := snap.TrainLinRegGD(response, 1e-3, borg.GDOptions{MaxIters: linregIters})
		if err != nil {
			return false, err
		}
		ok := finite(m.Intercept())
		for _, f := range snap.Features() {
			if f != response {
				c, err := m.Coefficient(f)
				ok = ok && err == nil && finite(c)
			}
		}
		return ok, nil
	case "pca":
		m, err := snap.TrainPCA(2)
		if err != nil {
			return false, err
		}
		return finite(m.Eigenvalues...) && finite(m.Means...), nil
	case "kmeans":
		m, err := snap.KMeansSeeds(4)
		if err != nil {
			return false, err
		}
		ok := finite(m.TotalVariance)
		for _, c := range m.Centers {
			ok = ok && finite(c...)
		}
		return ok, nil
	case "polyreg":
		m, err := snap.TrainPolyReg(response, 1e-3)
		if err != nil {
			return false, err
		}
		return finite(m.Intercept()), nil
	case "chowliu":
		edges, err := snap.TrainChowLiu()
		ok := true
		for _, e := range edges {
			ok = ok && finite(e.MI)
		}
		return ok, err
	case "ctree":
		m, err := snap.TrainCTree(response, borg.TreeOptions{MaxDepth: 3})
		if err != nil {
			return false, err
		}
		return m.Nodes() > 0, nil
	case "svm":
		m, err := snap.TrainSVM(response, 1e-3)
		if err != nil {
			return false, err
		}
		return finite(m.Bias()), nil
	}
	return false, fmt.Errorf("unknown model kind %q", kind)
}
