// Command borg-bench regenerates the paper's tables and figures, the
// entries of internal/bench's Figures; README's paper → package map says
// which package each one exercises. It reproduces relative shapes (who
// wins, by how much), not performance claims: the system's performance
// is measured by benchmarks/e2e.
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

	figs, ok := bench.Lookup(*fig)
	if !ok {
		fmt.Fprintf(os.Stderr, "borg-bench: unknown experiment %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	o := bench.Options{Seed: *seed, SF: *sf, Workers: *workers, Budget: *budget}
	for _, f := range figs {
		tables, err := f.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "borg-bench: %s: %v\n", f.Paper, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
}
