package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport keeps the product to the code something calls: an exported
// package-level identifier or method of an internal/ package that no
// non-test file of the module references is flagged. A reference is
// matched by package path, name and, for a method, the receiver's type
// name, because each package is type-checked against export data and
// one declaration is a different types.Object in every importer.
// References are counted over pass.Module, so a run over a subset of
// the packages still sees the callers outside it.
//
// A method whose name some interface type of the loaded universe
// declares (String, Error, the ring algebra) counts as referenced: it
// may be called through the interface. internal/testdb is exempt, being
// the tests' generator and oracle. Anything else a test keeps as its
// reference, or that only another module (benchmarks/e2e) calls, is
// annotated with //borg:vet-ok deadexport — <the caller>.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "flags an exported identifier of an internal/ package that no " +
		"non-test file of the module references",
	Run: runDeadExport,
}

const deadExportExempt = "borg/internal/testdb"

// objKey names a declaration the same way in its own package and in
// every importer.
type objKey struct{ pkg, recv, name string }

// keyOf returns the key of a package-level object or a method; ok is
// false for locals, fields and objects of no package.
func keyOf(obj types.Object) (objKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return objKey{}, false
	}
	k := objKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				k.recv = n.Obj().Name()
			}
			return k, true
		}
	}
	return k, obj.Parent() == obj.Pkg().Scope()
}

func runDeadExport(pass *Pass) error {
	path := pass.Pkg.PkgPath
	if !strings.Contains(path, "/internal/") || strings.HasPrefix(path, deadExportExempt) {
		return nil
	}
	refs, ifaceMethods := moduleReferences(pass.Module)
	info := pass.Pkg.Info
	report := func(id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		k, ok := keyOf(info.Defs[id])
		if !ok || refs[k] || (k.recv != "" && ifaceMethods[k.name]) {
			return
		}
		name := k.name
		if k.recv != "" {
			name = k.recv + "." + name
		}
		pass.Reportf(id.Pos(), "exported %s has no caller in the module's non-test files: "+
			"delete it, move it into a _test.go file, or annotate the caller", name)
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				report(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							report(id)
						}
					}
				}
			}
		}
	}
	return nil
}

// moduleReferences collects the keys of every object the packages
// use, and the method names of every interface type they see: declared
// in their scopes or their imports' (transitively), or written in them.
func moduleReferences(pkgs []*Package) (map[objKey]bool, map[string]bool) {
	refs := make(map[objKey]bool)
	ifaceMethods := make(map[string]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, obj := range pkg.Info.Uses {
			if k, ok := keyOf(obj); ok {
				refs[k] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return refs, ifaceMethods
}
