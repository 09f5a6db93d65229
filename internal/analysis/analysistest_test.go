package analysis

// The fixture harness is a dependency-free miniature of
// golang.org/x/tools' analysistest: fixture packages live under
// testdata/src/<case>/ and are type-checked with a simulated import
// path (CheckDir) so the scope rules keyed on package paths apply to
// them. Expected findings are written in the fixture source as
//
//	code // want "regexp" ["regexp" ...]
//
// one quoted regexp per diagnostic expected on that line, in order.
// A fixture with no want comments asserts the analyzer stays silent.

import (
	"errors"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	loaderErr  error
	theLoader  *Loader
)

// fixtureLoader builds one shared export-data universe for the whole
// module: every fixture type-checks against the same `go list -export`
// result, so the go side runs once per test binary.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		l, err := NewLoader(".")
		if err != nil {
			loaderErr = err
			return
		}
		if err := l.List("./..."); err != nil {
			loaderErr = err
			return
		}
		theLoader = l
	})
	if loaderErr != nil {
		t.Fatalf("loading export-data universe: %v", loaderErr)
	}
	return theLoader
}

// runFixture checks one fixture directory with one analyzer under a
// simulated import path and matches the diagnostics against the
// fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, rel, pkgPath string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", rel)
	pkg, err := l.CheckDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s as %s: %v", rel, pkgPath, err)
	}
	diags, err := Run([]*Package{pkg}, []*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, rel, err)
	}
	matchWants(t, dir, diags)
	return pkg
}

type lineKey struct {
	file string // base name
	line int
}

var wantCommentRE = regexp.MustCompile(`//\s*want\s+(.+)$`)
var wantQuotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants extracts the want expectations of every fixture file.
func parseWants(t *testing.T, dir string) map[lineKey][]*regexp.Regexp {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantCommentRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := lineKey{e.Name(), i + 1}
			for _, q := range wantQuotedRE.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", e.Name(), i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pat, err)
				}
				wants[key] = append(wants[key], re)
			}
			if len(wants[key]) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted regexp", e.Name(), i+1)
			}
		}
	}
	return wants
}

// matchWants pairs diagnostics with want expectations line by line.
func matchWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, dir)
	got := make(map[lineKey][]string)
	for _, d := range diags {
		key := lineKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		got[key] = append(got[key], d.Message)
	}
	for key, res := range wants {
		msgs := got[key]
		if len(msgs) != len(res) {
			t.Errorf("%s:%d: want %d diagnostic(s), got %d: %q",
				key.file, key.line, len(res), len(msgs), msgs)
			continue
		}
		for i, re := range res {
			if !re.MatchString(msgs[i]) {
				t.Errorf("%s:%d: diagnostic %q does not match want %q",
					key.file, key.line, msgs[i], re)
			}
		}
	}
	for key, msgs := range got {
		if _, expected := wants[key]; !expected {
			t.Errorf("%s:%d: unexpected diagnostic(s): %q", key.file, key.line, msgs)
		}
	}
}

func TestMapIterFixtures(t *testing.T) {
	// Whole-package deterministic scope.
	runFixture(t, MapIter, "mapiter/det", "borg/internal/ivm")
	// serve/shard scope: only snapshot/merge/publish/fold functions.
	runFixture(t, MapIter, "mapiter/scoped", "borg/internal/serve")
	// Out-of-scope package: the same loops are fine elsewhere.
	runFixture(t, MapIter, "mapiter/outside", "borg/internal/datagen")
}

func TestObsGuardFixtures(t *testing.T) {
	runFixture(t, ObsGuard, "obsguard", "borg/internal/serve")
}

func TestPlanRouteFixtures(t *testing.T) {
	runFixture(t, PlanRoute, "planroute/caller", "borg/internal/bench")
	// internal/plan itself wraps the legacy constructors and may call
	// them directly.
	runFixture(t, PlanRoute, "planroute/exempt", "borg/internal/plan")
}

func TestAtomicMixFixtures(t *testing.T) {
	runFixture(t, AtomicMix, "atomicmix", "borg/internal/fixture")
}

// TestDeadExportFixtures checks lib with its caller user in the module,
// first with both packages as targets and then with lib alone: a run
// over a subset of the module must still see the calls from outside it.
func TestDeadExportFixtures(t *testing.T) {
	l := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", "deadexport")
	lib, err := l.CheckDir(filepath.Join(dir, "lib"), "borg/internal/deadexport/lib")
	if err != nil {
		t.Fatal(err)
	}
	user, err := l.CheckDir(filepath.Join(dir, "user"), "borg/internal/deadexport/user")
	if err != nil {
		t.Fatal(err)
	}
	module := []*Package{lib, user}
	for _, targets := range [][]*Package{module, {lib}} {
		diags, err := Run(targets, module, []*Analyzer{DeadExport})
		if err != nil {
			t.Fatal(err)
		}
		matchWants(t, filepath.Join(dir, "lib"), diags)
	}
}

func TestMalformedAnnotationReported(t *testing.T) {
	pkg := runFixture(t, MapIter, "annotation", "borg/internal/ivm")
	if len(pkg.Malformed) != 1 {
		t.Fatalf("want exactly 1 malformed annotation, got %d: %v",
			len(pkg.Malformed), pkg.Malformed)
	}
	if pkg.Malformed[0].Line != malformedFixtureLine(t) {
		t.Fatalf("malformed annotation reported at line %d, want %d",
			pkg.Malformed[0].Line, malformedFixtureLine(t))
	}
}

// malformedFixtureLine finds the bare //borg:vet-ok line in the
// annotation fixture so the test does not hard-code a line number.
func malformedFixtureLine(t *testing.T) int {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "src", "annotation", "annotation.go"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.TrimSpace(line) == "//borg:vet-ok" {
			return i + 1
		}
	}
	t.Fatal("annotation fixture has no bare //borg:vet-ok line")
	return 0
}

// CheckDir parses and type-checks all .go files of one directory as a
// package with the given import path — the analysistest entry point for
// fixture packages that live under testdata (invisible to go list) but
// need to type-check against real repo packages. A later fixture may
// import an earlier one by a path that has no export data.
func (l *Loader) CheckDir(dir, pkgPath string) (*Package, error) {
	if !l.loadedOK {
		return nil, errors.New("analysis: Loader.List has not run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	pkg, err := l.check(pkgPath, dir, files, importerFunc(func(path string) (*types.Package, error) {
		if p := fixtureTypes[path]; p != nil && l.exports[path] == "" {
			return p, nil
		}
		return l.imports.Import(path)
	}))
	if err != nil {
		return nil, err
	}
	fixtureTypes[pkgPath] = pkg.Types
	return pkg, nil
}

// fixtureTypes holds the fixtures CheckDir has checked, by import path.
var fixtureTypes = make(map[string]*types.Package)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
