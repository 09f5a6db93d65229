package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package plus the side tables
// the analyzers need (suppression annotations, raw sources).
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	// Files are the package's non-test source files, parsed with
	// comments, in GoFiles order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Malformed lists //borg:vet-ok annotations that name no analyzer;
	// borg-vet reports them so a typo cannot silently suppress nothing.
	Malformed []token.Position

	// suppress maps filename -> line -> analyzer names silenced there.
	suppress map[string]map[int][]string
}

// suppressed reports whether the named analyzer is annotated away at
// the diagnostic's line.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	lines := p.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	for _, name := range lines[pos.Line] {
		if name == analyzer {
			return true
		}
	}
	return false
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// A Loader resolves and type-checks packages of one module, importing
// dependencies from compiler export data (`go list -export`), so no
// dependency is ever re-type-checked from source.
type Loader struct {
	// ModDir is the module root `go` commands run in.
	ModDir string
	// ModPath is the module path from go.mod (e.g. "borg").
	ModPath string

	fset     *token.FileSet
	exports  map[string]string // import path -> export data file
	imports  types.Importer
	listed   []*listPkg
	targets  map[string]bool // import paths the patterns match
	loadedOK bool
}

// NewLoader prepares a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	out, err := goCmd(dir, "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("analysis: %s is not inside a Go module", dir)
	}
	l := &Loader{ModDir: filepath.Dir(gomod), fset: token.NewFileSet()}
	return l, nil
}

// List resolves the patterns (default ./...) and builds the export-data
// universe for them, the rest of the module and all their
// dependencies. It must run before Packages or CheckDir.
func (l *Loader) List(patterns ...string) error {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, err := goCmd(l.ModDir, append([]string{"list", "-e", "-f", "{{.ImportPath}}"}, patterns...)...)
	if err != nil {
		return err
	}
	l.targets = make(map[string]bool)
	for _, path := range strings.Fields(string(out)) {
		l.targets[path] = true
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module,Error",
		"./...",
	}, patterns...)
	out, err = goCmd(l.ModDir, args...)
	if err != nil {
		return err
	}
	l.exports = make(map[string]string)
	l.listed = nil
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		q := p
		if q.Error != nil {
			return fmt.Errorf("analysis: %s: %s", q.ImportPath, q.Error.Err)
		}
		if q.Export != "" {
			l.exports[q.ImportPath] = q.Export
		}
		if q.Module != nil && l.ModPath == "" && q.Module.Path != "" && !q.Standard {
			l.ModPath = q.Module.Path
		}
		l.listed = append(l.listed, &q)
	}
	l.imports = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		e := l.exports[path]
		if e == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	l.loadedOK = true
	return nil
}

// Packages parses and type-checks every non-test package of the module
// (dependencies and the standard library are imported from export data,
// not re-checked). It returns the pattern-matched ones as targets and
// all of them as module, the universe a module-wide check counts
// references over; both are sorted by import path.
func (l *Loader) Packages() (targets, module []*Package, err error) {
	if !l.loadedOK {
		return nil, nil, errors.New("analysis: Loader.List has not run")
	}
	for _, p := range l.listed {
		if p.Standard || p.DepOnly {
			continue
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		pkg, err := l.check(p.ImportPath, p.Dir, files, l.imports)
		if err != nil {
			return nil, nil, err
		}
		module = append(module, pkg)
	}
	sort.Slice(module, func(i, j int) bool { return module[i].PkgPath < module[j].PkgPath })
	for _, pkg := range module {
		if l.targets[pkg.PkgPath] {
			targets = append(targets, pkg)
		}
	}
	return targets, module, nil
}

// check parses the named files and type-checks them as one package,
// resolving its imports through imp.
func (l *Loader) check(pkgPath, dir string, filenames []string, imp types.Importer) (*Package, error) {
	pkg := &Package{
		PkgPath:  pkgPath,
		Dir:      dir,
		Fset:     l.fset,
		suppress: make(map[string]map[int][]string),
	}
	for _, name := range filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		for _, s := range suppressionsForFile(l.fset, f, src) {
			if s.malformed {
				pkg.Malformed = append(pkg.Malformed, token.Position{Filename: name, Line: s.line})
				continue
			}
			lines := pkg.suppress[name]
			if lines == nil {
				lines = make(map[int][]string)
				pkg.suppress[name] = lines
			}
			lines[s.line] = append(lines[s.line], s.analyzer)
			if s.nextToo {
				lines[s.line+1] = append(lines[s.line+1], s.analyzer)
			}
		}
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// goCmd runs the go tool in dir and returns stdout, folding stderr into
// the error.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("analysis: go %s: %s", strings.Join(args, " "), msg)
	}
	return out, nil
}
