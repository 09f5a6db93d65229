package borg

import (
	"testing"
	"time"

	"borg/internal/bench"
)

// BenchmarkFigures runs every entry of internal/bench's Figures — the
// paper's figures and the planning figure — as one sub-benchmark at a
// small scale factor, so the suite stays seconds, not minutes:
//
//	go test -run '^$' -bench Figures .
//
// cmd/borg-bench prints the same figures' tables; use it with -sf 1.0
// for full laptop-scale tables.
func BenchmarkFigures(b *testing.B) {
	o := bench.Options{Seed: 1, SF: 0.05, Workers: 2, Budget: time.Second}
	for _, f := range bench.Figures {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
