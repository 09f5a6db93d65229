// Command borg-vet proves the repo's load-bearing contracts at compile
// time: it runs the internal/analysis suite — mapiter (bitwise
// determinism), obsguard (MetricsOff stays a control arm), planroute
// (every join tree through internal/plan), atomicmix (no mixed
// atomic/plain field access), deadexport (no exported internal/
// identifier without a non-test caller, counted over the whole module
// whatever the patterns) — over the requested packages, plus the
// noalloc build-mode gate (//borg:noalloc functions stay free of heap
// escapes, via `go build -gcflags=-m`).
//
// Usage:
//
//	borg-vet [flags] [packages]
//
// Packages default to ./... resolved in the current module. Exit status
// is 0 when clean, 1 when any invariant is violated, 2 on usage or load
// errors. Suppress a false positive in source with
// //borg:vet-ok <analyzer> (mapiter also accepts
// //borg:nondeterministic-ok); see the README's "Static analysis"
// section for the annotation grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"borg/internal/analysis"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		skip    = flag.String("skip", "", "comma-separated analyzer names to skip")
		list    = flag.Bool("list", false, "list analyzers and exit")
		verbose = flag.Bool("v", false, "report progress while loading and running")
	)
	flag.Parse()

	static := analysis.Analyzers()
	if *list {
		for _, a := range static {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-10s %s\n", "noalloc", "build-mode gate: //borg:noalloc functions must stay free of heap escapes")
		return
	}
	selected, runNoalloc, err := selectAnalyzers(static, *only, *skip)
	if err != nil {
		fatalf(2, "borg-vet: %v", err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf(2, "borg-vet: %v", err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatalf(2, "borg-vet: %v", err)
	}
	patterns := flag.Args()
	progress(*verbose, "loading %s", patternsLabel(patterns))
	if err := loader.List(patterns...); err != nil {
		fatalf(2, "borg-vet: %v", err)
	}
	pkgs, module, err := loader.Packages()
	if err != nil {
		fatalf(2, "borg-vet: %v", err)
	}
	progress(*verbose, "type-checked %d packages", len(module))

	diags, err := analysis.Run(pkgs, module, selected)
	if err != nil {
		fatalf(2, "borg-vet: %v", err)
	}
	for _, pkg := range pkgs {
		for _, pos := range pkg.Malformed {
			diags = append(diags, analysis.Diagnostic{
				Pos: pos, Analyzer: "annotation",
				Message: "malformed //borg:vet-ok comment: name the analyzer it suppresses",
			})
		}
	}
	if runNoalloc {
		progress(*verbose, "running noalloc build-mode gate")
		nd, err := analysis.RunNoalloc(loader, pkgs)
		if err != nil {
			fatalf(2, "borg-vet: %v", err)
		}
		diags = append(diags, nd...)
	}
	analysis.SortDiagnostics(diags)

	for _, d := range diags {
		d.Pos.Filename = relToCwd(cwd, d.Pos.Filename)
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "borg-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	progress(*verbose, "clean")
}

// selectAnalyzers applies -only/-skip to the static suite and decides
// whether the noalloc build-mode gate runs.
func selectAnalyzers(static []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, bool, error) {
	known := map[string]bool{"noalloc": true}
	for _, a := range static {
		known[a.Name] = true
	}
	parse := func(s string) (map[string]bool, error) {
		if s == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				return nil, fmt.Errorf("unknown analyzer %q (run with -list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, false, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, false, err
	}
	keep := func(name string) bool {
		if onlySet != nil && !onlySet[name] {
			return false
		}
		return !skipSet[name]
	}
	var out []*analysis.Analyzer
	for _, a := range static {
		if keep(a.Name) {
			out = append(out, a)
		}
	}
	return out, keep("noalloc"), nil
}

func patternsLabel(patterns []string) string {
	if len(patterns) == 0 {
		return "./..."
	}
	return strings.Join(patterns, " ")
}

func relToCwd(cwd, name string) string {
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

func progress(on bool, format string, args ...any) {
	if on {
		fmt.Fprintf(os.Stderr, "borg-vet: "+format+"\n", args...)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
