// Package ring implements the (semi)ring abstraction of Section 3.1 of the
// paper and the concrete rings used throughout the system: the counting
// and summation semirings, and the covariance ring of Section 5.2 whose
// elements are (count, sum-vector, second-moment-matrix) triples.
//
// The point of the abstraction is the sum-product form of relational
// computation: a join result is a big sum (union) of products (tuple
// concatenations), and evaluating a query under a different ring
// re-purposes the *same* factorized computation for counting, aggregation,
// covariance-matrix construction, or incremental maintenance. Packages
// internal/factor and internal/ivm are generic over Ring.
package ring

// Ring is a commutative ring over T. Implementations must satisfy, for
// all a, b, c: commutativity and associativity of Add and Mul,
// distributivity of Mul over Add, Zero as additive identity, One as
// multiplicative identity, and Zero as multiplicative annihilator.
// These axioms are property-tested in ring_test.go.
//
// Add and Mul take and return values; implementations for heavy elements
// (Covar) also provide in-place variants on the concrete type for the hot
// paths.
type Ring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
}

// Inverter is implemented by rings with additive inverses, which is what
// turns insert-only maintenance into full insert/delete maintenance
// (Section 3.1, "additive inverse").
//
//borg:vet-ok deadexport — declares the Neg that ring and ml tests check the inverse with
type Inverter[T any] interface {
	Neg(a T) T
}

// Algebra is the maintenance-facing view of a ring over heavy elements:
// what a view hierarchy needs to lift tuples, combine subtree payloads,
// retract contributions, and prune drained entries. CovarRing (over
// *Covar), Poly2Ring (over *Poly2) and CofactorRing all implement it,
// which is what lets one generic F-IVM propagation maintain any payload.
//
// LiftInto, MulInto and NegInto are destination-passing: the caller
// offers dst, an element of this ring it owns and no longer reads, and
// uses the returned element. CovarRing and Poly2Ring overwrite dst and
// return it, allocating nothing — a Covar destination takes the shape of
// the result's block of feature slots, on its own array when that has
// the room (one from Zero always has); CofactorRing refills dst's own
// key array and record slab.
type Algebra[E any] interface {
	Zero() E
	// LiftInto maps one tuple's owned feature values (global indexes idx,
	// parallel values vals) into the ring.
	LiftInto(dst E, idx []int, vals []float64) E
	// MulInto returns a * b; dst must alias neither.
	MulInto(dst, a, b E) E
	// NegInto returns -a; dst may be a itself.
	NegInto(dst, a E) E
	// AddInPlace accumulates src into dst.
	AddInPlace(dst, src E)
	// IsZero reports whether e is exactly the additive identity.
	IsZero(e E) bool
	// Clone returns a deep copy sharing no state with e.
	Clone(e E) E
}

// Float is the ring of float64 under + and *. It is a ring up to floating
// point rounding; the property tests use exact small integers.
type Float struct{}

// Zero returns 0.
func (Float) Zero() float64 { return 0 }

// One returns 1.
func (Float) One() float64 { return 1 }

// Add returns a + b.
func (Float) Add(a, b float64) float64 { return a + b }

// Mul returns a * b.
func (Float) Mul(a, b float64) float64 { return a * b }

// Neg returns -a.
func (Float) Neg(a float64) float64 { return -a }

// Int is the ring of int64 under + and *. With tuple multiplicities as
// int64, inserts are +1 and deletes are -1 (Section 3.1).
type Int struct{}

// Zero returns 0.
func (Int) Zero() int64 { return 0 }

// One returns 1.
func (Int) One() int64 { return 1 }

// Add returns a + b.
func (Int) Add(a, b int64) int64 { return a + b }

// Mul returns a * b.
func (Int) Mul(a, b int64) int64 { return a * b }

// Neg returns -a.
func (Int) Neg(a int64) int64 { return -a }
