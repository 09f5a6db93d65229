//go:build race

package borg

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so pins on pooled scratch do not hold.
const raceEnabled = true
