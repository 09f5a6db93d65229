module borg/benchmarks/e2e

go 1.23

require borg v0.0.0

replace borg => ../..
