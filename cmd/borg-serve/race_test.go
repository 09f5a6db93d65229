//go:build race

package main

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so pins on the pooled request state do not hold.
const raceEnabled = true
