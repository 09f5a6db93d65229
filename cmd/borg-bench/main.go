// Command borg-bench regenerates the paper's tables and figures; README's
// paper → package map says which package each one exercises. It
// reproduces relative shapes (who wins, by how much), not performance
// claims: the system's performance is measured by benchmarks/e2e.
//
// Usage:
//
//	borg-bench -fig all            # every paper figure
//	borg-bench -fig 3 -sf 1.0      # Figure 3 at full laptop scale
//	borg-bench -fig 4l|4r|5|6|compress|ifaq|ineq|reuse
//	borg-bench -fig plan           # static vs greedy vs replanned on the SkewFlip stream
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"borg/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "experiment: 3, 4l, 4r, 5, 6, compress, ifaq, ineq, reuse, plan, or all (every paper figure; plan runs individually)")
	sf := flag.Float64("sf", 0.2, "dataset scale factor (1.0 = full laptop-scale run)")
	seed := flag.Uint64("seed", 2020, "random seed for data generation")
	workers := flag.Int("workers", 2, "LMFAO worker goroutines")
	budget := flag.Duration("budget", 5*time.Second, "per-strategy time budget for the IVM and planning experiments")
	flag.Parse()

	o := bench.Options{Out: os.Stdout, Seed: *seed, SF: *sf, Workers: *workers, Budget: *budget}
	runners := map[string]func(bench.Options) error{
		"3":        bench.Fig3,
		"4l":       bench.Fig4Left,
		"4r":       bench.Fig4Right,
		"5":        bench.Fig5,
		"6":        bench.Fig6,
		"compress": bench.Compression,
		"ifaq":     bench.IFAQStages,
		"ineq":     bench.Ineq,
		"reuse":    bench.Reuse,
		"plan":     bench.PlanBenchTable,
		"all":      bench.All,
	}
	run, ok := runners[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "borg-bench: unknown experiment %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "borg-bench: %v\n", err)
		os.Exit(1)
	}
}
