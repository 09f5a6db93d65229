// Package user is the deadexport fixture's caller of lib.
package user

import "borg/internal/deadexport/lib"

type describer interface{ Describe() string }

func use() int {
	var t lib.T
	t.Bump()
	return lib.Used() + lib.Limit
}
