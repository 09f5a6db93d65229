// Package lib declares the exports the deadexport fixture checks. It is
// loaded as borg/internal/deadexport/lib, and its sibling user, loaded
// as borg/internal/deadexport/user, is the only code that calls it.
package lib

// Used is called from the sibling package.
func Used() int { return 1 }

// Unused has no caller anywhere.
func Unused() {} // want "exported Unused has no caller"

// Limit is read from the sibling package; Spare is read nowhere.
const (
	Limit = 3
	Spare = 4 // want "exported Spare has no caller"
)

// T is named by the sibling package.
type T struct{}

// Bump is called through a *T in the sibling package.
func (t *T) Bump() {}

// Describe is never called directly, but the sibling declares an
// interface with a Describe method, so it may be called through that.
func (T) Describe() string { return "t" }

// Drop is a method no code calls and no interface declares.
func (t *T) Drop() {} // want "exported T.Drop has no caller"

// Kept has no caller in the module, and says which caller keeps it.
//
//borg:vet-ok deadexport — the fixture's test suite is its caller
func Kept() {}

// unexported declarations are never checked.
func helper() {}
