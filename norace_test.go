//go:build !race

package borg

const raceEnabled = false
