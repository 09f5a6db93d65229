package ml

import (
	"fmt"
	"slices"

	"borg/internal/relation"
)

// NewDesign builds a Design by scanning a materialized data matrix for
// the observed category codes. This is the one-hot layout the
// structure-agnostic pipeline has to build by looking at the data —
// the aggregate-based path gets the same layout from the group-by
// results instead (AssembleSigma).
func NewDesign(data *relation.Relation, cont, cat []string, response string) (*Design, error) {
	d := &Design{Cont: cont, Cat: cat, Response: response}
	for _, a := range append(append([]string(nil), cont...), response) {
		c := data.AttrIndex(a)
		if c < 0 {
			return nil, fmt.Errorf("ml: data matrix missing attribute %s", a)
		}
		if data.Attrs()[c].Type != relation.Double {
			return nil, fmt.Errorf("ml: attribute %s is not continuous", a)
		}
	}
	catCodes := make([][]int32, len(cat))
	for k, g := range cat {
		c := data.AttrIndex(g)
		if c < 0 {
			return nil, fmt.Errorf("ml: data matrix missing attribute %s", g)
		}
		if data.Attrs()[c].Type != relation.Category {
			return nil, fmt.Errorf("ml: attribute %s is not categorical", g)
		}
		seen := make(map[int32]bool)
		for row := 0; row < data.NumRows(); row++ {
			seen[data.Cat(c, row)] = true
		}
		codes := make([]int32, 0, len(seen))
		for code := range seen {
			codes = append(codes, code)
		}
		slices.Sort(codes)
		catCodes[k] = codes
	}
	d.setCats(catCodes, nil)
	return d, nil
}

// Model wraps a trained parameter vector into a LinReg over this design.
func (d *Design) Model(theta []float64, lambda float64) *LinReg {
	return &LinReg{Design: *d, Theta: theta, Lambda: lambda}
}
