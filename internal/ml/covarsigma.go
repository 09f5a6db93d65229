package ml

import (
	"fmt"

	"borg/internal/ring"
)

// SigmaFromCovar builds the normalized moment matrix of a ridge linear
// regression directly from a covariance-ring triple, as maintained by
// the internal/ivm strategies over continuous features. The response
// must be one of the maintained features; the remaining features become
// the model's continuous features, in order. This is the bridge from a
// serving-layer snapshot to model training: no aggregate batch, no data
// access — the triple already is the sufficient statistics.
func SigmaFromCovar(features []string, response string, c *ring.Covar) (*Sigma, error) {
	if c.N != len(features) {
		return nil, fmt.Errorf("ml: covar has %d features, name list has %d", c.N, len(features))
	}
	if err := CheckSnapshot(c, 1); err != nil {
		return nil, err
	}
	d, idx, ry, err := splitResponse(features, response)
	if err != nil {
		return nil, err
	}
	return newSigma(d, idx, ry, c), nil
}
