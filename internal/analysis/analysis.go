// Package analysis is borg-vet's analyzer framework: a dependency-free
// reimplementation of the go/analysis idea on the standard library's
// go/ast + go/types, driven by `go list -export` so packages type-check
// against compiled export data instead of re-checking their
// dependencies from source.
//
// The suite encodes the repo's load-bearing invariants as compile-time
// checks (see the individual analyzer files):
//
//   - mapiter:    no unsorted map iteration in deterministic code
//   - obsguard:   stored obs handles only dereferenced behind nil guards
//   - planroute:  join trees are built by internal/plan, nowhere else
//   - atomicmix:  no field accessed both atomically and plainly
//   - deadexport: no exported internal/ identifier without a non-test caller
//   - noalloc:    //borg:noalloc functions stay free of heap escapes
//
// False positives are suppressed in place with an annotation comment:
//
//	//borg:vet-ok <analyzer> — <why it is safe>
//
// which silences the named analyzer on its own line and, when the
// comment stands alone, on the line below it. mapiter accepts the
// domain-specific spelling //borg:nondeterministic-ok as an alias for
// //borg:vet-ok mapiter.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package and reports findings through the pass; analyzers
// that cannot work per-package (the build-mode noalloc gate) live
// outside this interface, see noalloc.go.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //borg:vet-ok suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run performs the check over pass.Pkg.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Module is every loaded package of the module, matched by the
	// patterns or not: what a module-wide check counts references over.
	Module []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an in-source annotation
// suppresses this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers is the full static suite, in reporting order. The noalloc
// build-mode gate is separate (NoallocGate) because it needs the
// compiler, not just the AST.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, ObsGuard, PlanRoute, AtomicMix, DeadExport}
}

// Run applies the given analyzers to every package of pkgs, with module
// as the module-wide universe, and returns the surviving diagnostics
// sorted by position.
func Run(pkgs, module []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Module: module, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the stable order borg-vet prints and fixtures assert against.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppression is one //borg:vet-ok annotation: the analyzer it silences
// and the line range it covers.
type suppression struct {
	analyzer  string // "" suppresses nothing (malformed annotation)
	line      int
	nextToo   bool // comment stands alone: also covers the next line
	malformed bool
}

// suppressionsForFile extracts the annotation comments of one parsed
// file. src is the raw file content (used to decide whether a comment
// stands alone on its line).
func suppressionsForFile(fset *token.FileSet, f *ast.File, src []byte) []suppression {
	lineStart := func(pos token.Position) []byte {
		// Byte offset of the start of pos's line within src.
		off := pos.Offset - (pos.Column - 1)
		if off < 0 || off > len(src) || pos.Offset > len(src) {
			return nil
		}
		return src[off:pos.Offset]
	}
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(strings.TrimSpace(text), "borg:")
			var name string
			switch {
			case strings.HasPrefix(text, "nondeterministic-ok"):
				name = MapIter.Name
			case strings.HasPrefix(text, "vet-ok"):
				rest := strings.TrimSpace(strings.TrimPrefix(text, "vet-ok"))
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					name = fields[0]
				}
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			alone := len(strings.TrimSpace(string(lineStart(pos)))) == 0
			out = append(out, suppression{
				analyzer:  name,
				line:      pos.Line,
				nextToo:   alone,
				malformed: name == "",
			})
		}
	}
	return out
}
