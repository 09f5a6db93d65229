// Snapshot validation and snapshot-to-model bridges: the shared
// degenerate-input gate every snapshot trainer passes through, plus the
// constructors that turn ring statistics (covariance triples, lifted
// degree-2 elements) into trainable moment matrices.
//
// The bug class this centralizes: a snapshot of an empty join — never
// populated, or churned to empty by deletes — has Count == 0, and any
// trainer that divides by it silently produces NaN models. Every
// snapshot consumer (means, second moments, linear regression, PCA,
// polynomial regression, k-means seeding) validates through
// CheckSnapshot first, so the degenerate case is a typed error exactly
// once, for all model kinds.
package ml

import (
	"errors"
	"fmt"
	"math"

	"borg/internal/ring"
)

// ErrEmptySnapshot is returned by every snapshot trainer when the
// join has no live tuples (count below the minimum support): there is
// no model to train, and returning NaN coefficients would silently
// poison downstream consumers.
var ErrEmptySnapshot = errors.New("empty snapshot: the join has no live tuples to train on")

// CheckSnapshot is the shared degenerate-snapshot gate: the triple must
// carry at least minCount joined tuples (1 when minCount <= 0) and only
// finite moments. It returns an error wrapping ErrEmptySnapshot for the
// empty case, so callers at any layer can errors.Is against it.
func CheckSnapshot(c *ring.Covar, minCount float64) error {
	if err := support(c.Count, minCount); err != nil {
		return err
	}
	for _, v := range c.Sum {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ml: snapshot carries a non-finite sum (%v); refusing to train", v)
		}
	}
	for _, v := range c.Q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ml: snapshot carries a non-finite moment (%v); refusing to train", v)
		}
	}
	return nil
}

// CheckLifted is CheckSnapshot for a lifted degree-2 element: minimum
// support on the count plus finiteness of every degree-≤4 moment.
func CheckLifted(p *ring.Poly2, minCount float64) error {
	if err := support(p.Count(), minCount); err != nil {
		return err
	}
	for _, v := range p.M {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ml: snapshot carries a non-finite lifted moment (%v); refusing to train", v)
		}
	}
	return nil
}

// support is the minimum-support half of the gates: count must reach
// minCount (1 when minCount <= 0), or the error wraps ErrEmptySnapshot.
func support(count, minCount float64) error {
	if minCount <= 0 {
		minCount = 1
	}
	if math.IsNaN(count) || count < minCount {
		if count >= 1 {
			return fmt.Errorf("ml: snapshot carries %v joined tuples, below the minimum support %v: %w", count, minCount, ErrEmptySnapshot)
		}
		return fmt.Errorf("ml: %w (count = %v)", ErrEmptySnapshot, count)
	}
	return nil
}

// MomentsFromCovar builds the normalized moment matrix over ALL the
// maintained features (no response) from a covariance-ring triple — the
// input of the response-free models: PCA and k-means seeding. XtY and
// YtY stay zero.
func MomentsFromCovar(features []string, c *ring.Covar) (*Sigma, error) {
	if c.N != len(features) {
		return nil, fmt.Errorf("ml: covar has %d features, name list has %d", c.N, len(features))
	}
	if err := CheckSnapshot(c, 1); err != nil {
		return nil, err
	}
	d := Design{Cont: append([]string(nil), features...)}
	d.setCats(nil, nil)
	n := d.totalSize
	s := &Sigma{Design: d, Count: c.Count, XtX: square(n), XtY: make([]float64, n)}
	inv := 1 / c.Count
	s.XtX[0][0] = 1
	for i := 0; i < c.N; i++ {
		s.set(0, i+1, c.Sum[i]*inv)
		for j := i; j < c.N; j++ {
			s.set(i+1, j+1, c.Q[i*c.N+j]*inv)
		}
	}
	return s, nil
}

// KMeansSeeds derives k cluster seeds from snapshot moments alone — the
// Rk-means-style move of Section 3.3 applied to the serving tier: no
// data access, only the mean vector and the principal axes of the
// covariance. Seed 0 is the mean; subsequent seeds step outward along
// the principal components at ±√λ, cycling through the axes and growing
// the step each full cycle. The seeds initialize a downstream Lloyd's
// run (over data, a coreset, or fresher statistics); they are
// deterministic, so equal snapshots give equal seeds.
func KMeansSeeds(s *Sigma, k int) ([][]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ml: k-means seeding needs k >= 1, got %d", k)
	}
	n := s.Size() - 1
	if n <= 0 {
		return nil, fmt.Errorf("ml: k-means seeding needs at least one feature")
	}
	mean := make([]float64, n)
	for i := 0; i < n; i++ {
		mean[i] = s.XtX[0][i+1]
	}
	seeds := make([][]float64, 0, k)
	seeds = append(seeds, append([]float64(nil), mean...))
	if k == 1 {
		return seeds, nil
	}
	nAxes := k / 2 // = ceil((k-1)/2): each axis hosts a ± seed pair per cycle
	if nAxes > n {
		nAxes = n
	}
	comps, eigs, err := PCA(s, nAxes, 0, kmeansSeedSeed)
	if err != nil {
		return nil, err
	}
	for m := 1; m < k; m++ {
		c := (m - 1) % (2 * len(comps))
		axis, sign := c/2, 1.0
		if c%2 == 1 {
			sign = -1
		}
		step := sign * float64(1+(m-1)/(2*len(comps)))
		scale := math.Sqrt(math.Max(eigs[axis], 0))
		seed := make([]float64, n)
		for i := 0; i < n; i++ {
			seed[i] = mean[i] + step*scale*comps[axis][i]
		}
		seeds = append(seeds, seed)
	}
	return seeds, nil
}

// kmeansSeedSeed fixes the PCA power-iteration start for seeding, so
// seeds are a pure function of the snapshot statistics.
const kmeansSeedSeed = 0x5EED
