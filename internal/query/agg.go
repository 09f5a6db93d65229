package query

import (
	"fmt"
	"sort"
	"strings"

	"borg/internal/relation"
)

// The aggregate language of Section 2. Every learning task in the paper
// reduces to batches of aggregates of the shape
//
//	SUM( X_a^p * X_b^q * ... )  WHERE filters  GROUP BY  Z_1, ..., Z_k
//
// evaluated over the feature-extraction join: continuous attributes
// appear as factors of a product (powers 1 or 2 in practice), categorical
// attributes appear as group-by columns (the sparse-tensor encoding of
// one-hot interactions), and decision-tree costs add threshold or
// category-set filters.

// Factor is one multiplicand X^Power of an aggregate product, over a
// continuous attribute.
type Factor struct {
	Attr  string
	Power int
}

// FilterOp enumerates the predicate forms used by decision-tree costs
// (Section 2.2).
type FilterOp uint8

const (
	// GE tests a continuous attribute >= threshold.
	GE FilterOp = iota
	// LT tests a continuous attribute < threshold.
	LT
	// EQ tests a categorical attribute = a code.
	EQ
	// NE tests a categorical attribute != a code (the complement branch
	// of a one-vs-rest decision-tree split).
	NE
	// IN tests a categorical attribute against a code set.
	IN
)

// Filter is one conjunct of an aggregate's WHERE clause.
type Filter struct {
	Attr      string
	Op        FilterOp
	Threshold float64 // for GE/LT
	Code      int32   // for EQ
	Codes     []int32 // for IN, sorted
}

// Eval reports whether the filter accepts row `row` of relation r, where
// col is the filter attribute's column index in r.
func (f *Filter) Eval(r *relation.Relation, col, row int) bool {
	switch f.Op {
	case GE:
		return r.Float(col, row) >= f.Threshold
	case LT:
		return r.Float(col, row) < f.Threshold
	case EQ:
		return r.Cat(col, row) == f.Code
	case NE:
		return r.Cat(col, row) != f.Code
	case IN:
		c := r.Cat(col, row)
		i := sort.Search(len(f.Codes), func(i int) bool { return f.Codes[i] >= c })
		return i < len(f.Codes) && f.Codes[i] == c
	}
	return false
}

// MaxGroupBy is the widest supported GROUP BY. Covariance and mutual-
// information batches need at most 2; decision-tree node batches at most
// 1 plus filters. 4 leaves headroom for extensions.
const MaxGroupBy = 4

// AggSpec is one aggregate of a batch.
type AggSpec struct {
	// ID names the aggregate within its batch (unique), e.g. "q_units_price".
	ID string
	// GroupBy lists categorical attributes (at most MaxGroupBy).
	GroupBy []string
	// Factors multiplies continuous attributes; empty means SUM(1), a count.
	Factors []Factor
	// Filters restrict the contributing tuples (conjunction).
	Filters []Filter
}

// Validate checks the spec against the join's schema.
func (a *AggSpec) Validate(j *Join) error {
	if len(a.GroupBy) > MaxGroupBy {
		return fmt.Errorf("aggregate %s: %d group-by attributes, max %d", a.ID, len(a.GroupBy), MaxGroupBy)
	}
	for _, g := range a.GroupBy {
		t, ok := j.AttrType(g)
		if !ok {
			return fmt.Errorf("aggregate %s: unknown group-by attribute %s", a.ID, g)
		}
		if t != relation.Category {
			return fmt.Errorf("aggregate %s: group-by attribute %s is not categorical", a.ID, g)
		}
	}
	for _, f := range a.Factors {
		t, ok := j.AttrType(f.Attr)
		if !ok {
			return fmt.Errorf("aggregate %s: unknown factor attribute %s", a.ID, f.Attr)
		}
		if t != relation.Double {
			return fmt.Errorf("aggregate %s: factor attribute %s is not continuous", a.ID, f.Attr)
		}
		if f.Power < 1 || f.Power > 4 {
			return fmt.Errorf("aggregate %s: factor power %d out of range", a.ID, f.Power)
		}
	}
	for _, f := range a.Filters {
		t, ok := j.AttrType(f.Attr)
		if !ok {
			return fmt.Errorf("aggregate %s: unknown filter attribute %s", a.ID, f.Attr)
		}
		switch f.Op {
		case GE, LT:
			if t != relation.Double {
				return fmt.Errorf("aggregate %s: threshold filter on categorical %s", a.ID, f.Attr)
			}
		case EQ, NE, IN:
			if t != relation.Category {
				return fmt.Errorf("aggregate %s: code filter on continuous %s", a.ID, f.Attr)
			}
		}
	}
	return nil
}

// String renders the aggregate roughly as SQL, for logs and errors.
func (a *AggSpec) String() string {
	var b strings.Builder
	b.WriteString("SUM(")
	if len(a.Factors) == 0 {
		b.WriteString("1")
	}
	for i, f := range a.Factors {
		if i > 0 {
			b.WriteString("*")
		}
		b.WriteString(f.Attr)
		if f.Power > 1 {
			fmt.Fprintf(&b, "^%d", f.Power)
		}
	}
	b.WriteString(")")
	for i, f := range a.Filters {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		switch f.Op {
		case GE:
			fmt.Fprintf(&b, "%s>=%g", f.Attr, f.Threshold)
		case LT:
			fmt.Fprintf(&b, "%s<%g", f.Attr, f.Threshold)
		case EQ:
			fmt.Fprintf(&b, "%s=#%d", f.Attr, f.Code)
		case NE:
			fmt.Fprintf(&b, "%s!=#%d", f.Attr, f.Code)
		case IN:
			fmt.Fprintf(&b, "%s IN %v", f.Attr, f.Codes)
		}
	}
	if len(a.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(a.GroupBy, ","))
	}
	return b.String()
}

// GroupKey identifies one group of a grouped aggregate: the codes of the
// group-by attributes in spec order, padded with -1.
type GroupKey [MaxGroupBy]int32

// NoGroup is the key used for ungrouped (scalar) aggregates.
var NoGroup = GroupKey{-1, -1, -1, -1}

// MakeGroupKey builds a key from up to MaxGroupBy codes.
func MakeGroupKey(codes ...int32) GroupKey {
	k := NoGroup
	copy(k[:], codes)
	return k
}

// AggResult holds the value of one aggregate: a scalar when the spec has
// no group-by, otherwise a map from group key to value. Groups with value
// zero that never received a contribution are absent — the sparse-tensor
// representation of Section 2.1.
type AggResult struct {
	Spec   *AggSpec
	Scalar float64
	Groups map[GroupKey]float64
}

// IsScalar reports whether the result is ungrouped.
func (r *AggResult) IsScalar() bool { return r.Groups == nil }

// Value returns the scalar value, or the value of group k for grouped
// results.
func (r *AggResult) Value(k GroupKey) float64 {
	if r.Groups == nil {
		return r.Scalar
	}
	return r.Groups[k]
}

// ApproxEqual compares two results within a relative tolerance, treating
// missing groups as zero.
//
//borg:vet-ok deadexport — query, core and engine tests compare results with it
func (r *AggResult) ApproxEqual(o *AggResult, tol float64) bool {
	if r.IsScalar() != o.IsScalar() {
		return false
	}
	if r.IsScalar() {
		return approx(r.Scalar, o.Scalar, tol)
	}
	for k, v := range r.Groups {
		if !approx(v, o.Groups[k], tol) {
			return false
		}
	}
	for k, v := range o.Groups {
		if _, ok := r.Groups[k]; !ok && !approx(v, 0, tol) {
			return false
		}
	}
	return true
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b < 0 {
		b = -b
	}
	if b > m {
		m = b
	}
	return d <= tol*(1+m)
}
