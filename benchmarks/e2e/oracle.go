package main

import (
	"fmt"
	"math"
	"time"

	"borg"
)

// served is what a workload read back from the system under test after
// its final barrier, when every op it sent is visible.
type served struct {
	inserts, deletes uint64
	count            float64
	mean             func(attr string) (float64, error)
	// moment is SUM(a·b); nil where the surface does not expose second
	// moments (borg-serve's /stats serves count and means only).
	moment func(a, b string) (float64, error)
}

// oracleTol is the relative tolerance of the recompute check. A mean is
// compared relative to the attribute's root mean square and a second
// moment relative to the geometric mean of the two diagonal moments, so
// that a mean that happens to cancel to nearly 0 is not held to 1e-9 of
// nearly 0.
const oracleTol = 1e-9

// checkOracle recomputes the statistics of cont over the rows that
// survive the generators' streams — through the batch facade
// (Query.Covariance: the LMFAO engine, which shares no maintenance code
// with the serving path) — and compares count, every mean and every
// second moment with what was served, and the served op tallies with
// the generators'. It returns the mean time of one batch recompute.
func checkOracle(rc *runCtx, parent int, ds *dataset, gens []*churnGen, cont []string, got served) (time.Duration, error) {
	wantIns, wantDel := uint64(ds.preloadRows()), uint64(0)
	for _, g := range gens {
		wantIns += g.inserts
		wantDel += g.deletes
	}
	if got.inserts != wantIns || got.deletes != wantDel {
		return 0, fmt.Errorf("oracle: served tallies %d inserts, %d deletes; the generator sent %d, %d", got.inserts, got.deletes, wantIns, wantDel)
	}
	sp := rc.tr.begin(parent, "oracle.load")
	q, err := ds.facadeQuery(ds.survivors(gens))
	rc.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	q.Workers = rc.workers

	checked := make(map[[2]string]bool)
	var total time.Duration
	rounds := 0
	// Covariance leaves its response out of the moments it exposes, so
	// rotate the response: three rotations cover every pair.
	for r := 0; r < len(cont) && r < 3; r++ {
		var others []string
		for i, a := range cont {
			if i != r {
				others = append(others, a)
			}
		}
		sp := rc.tr.begin(parent, "core.covariance")
		t0 := time.Now()
		cov, err := q.Covariance(borg.Features{Continuous: others}, cont[r])
		total += time.Since(t0)
		rounds++
		rc.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
		if !closeTo(cov.Count(), got.count, math.Abs(got.count)) {
			return 0, fmt.Errorf("oracle: count served %v, recomputed %v", got.count, cov.Count())
		}
		rms := make(map[string]float64, len(others))
		for _, a := range others {
			m, err := cov.SecondMoment(a, a)
			if err != nil {
				return 0, err
			}
			rms[a] = math.Sqrt(m)
		}
		for i, a := range others {
			want, err := cov.Mean(a)
			if err != nil {
				return 0, err
			}
			have, err := got.mean(a)
			if err != nil {
				return 0, fmt.Errorf("oracle: served mean of %s: %w", a, err)
			}
			if !closeTo(have, want, rms[a]) {
				return 0, fmt.Errorf("oracle: mean of %s served %v, recomputed %v", a, have, want)
			}
			checked[[2]string{a, ""}] = true
			if got.moment == nil {
				continue
			}
			for _, b := range others[i:] {
				want, err := cov.SecondMoment(a, b) // E[a·b]
				if err != nil {
					return 0, err
				}
				have, err := got.moment(a, b) // SUM(a·b)
				if err != nil {
					return 0, fmt.Errorf("oracle: served moment of %s, %s: %w", a, b, err)
				}
				if !closeTo(have/got.count, want, rms[a]*rms[b]) {
					return 0, fmt.Errorf("oracle: E[%s·%s] served %v, recomputed %v", a, b, have/got.count, want)
				}
				checked[[2]string{a, b}] = true
			}
		}
	}
	for i, a := range cont {
		if !checked[[2]string{a, ""}] {
			return 0, fmt.Errorf("oracle: mean of %s was not checked", a)
		}
		for _, b := range cont[i:] {
			if got.moment != nil && !checked[[2]string{a, b}] && !checked[[2]string{b, a}] {
				return 0, fmt.Errorf("oracle: moment of %s, %s was not checked", a, b)
			}
		}
	}
	return total / time.Duration(rounds), nil
}

func closeTo(have, want, scale float64) bool {
	if math.IsNaN(have) || math.IsInf(have, 0) {
		return false
	}
	return math.Abs(have-want) <= oracleTol*math.Max(scale, math.SmallestNonzeroFloat64)
}
