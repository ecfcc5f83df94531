package lint

import (
	"bytes"
	"encoding/json"
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
	"strings"
)

// Package is one loaded, type-checked target package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns in dir, type-checks
// them from source and returns them ready for analysis. Dependencies
// are resolved from compiler export data in the build cache (populated
// by `go list -export`), so loading works offline and without
// golang.org/x/tools.
func Load(dir string, patterns []string) ([]*Package, error) {
	targets, err := goList(dir, false, patterns)
	if err != nil {
		return nil, err
	}
	ld, err := newLoader(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("lint: go list %s: %s", t.ImportPath, t.Error.Err)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := ld.check(t)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// newLoader builds a loader whose export-data universe covers the
// packages matching patterns in dir and all their dependencies.
func newLoader(dir string, patterns []string) (*loader, error) {
	universe, err := goList(dir, true, patterns)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:     token.NewFileSet(),
		exports:  map[string]string{},
		extraSrc: map[string]string{},
		srcPkgs:  map[string]*types.Package{},
	}
	for _, p := range universe {
		if p.Export != "" {
			ld.exports[p.ImportPath] = p.Export
		}
	}
	ld.imp = importer.ForCompiler(ld.fset, "gc", ld.lookup)
	return ld, nil
}

// LoadModules loads every package of the module that contains dir, of
// the modules it replaces with a local directory, and of the modules
// nested in any of those: the root module and bench/ from either side.
func LoadModules(dir string) ([]*Package, error) {
	cmd := exec.Command("go", "list", "-m", "-f",
		"{{if .Main}}{{.Dir}}{{else}}{{with .Replace}}{{if not .Version}}{{.Dir}}{{end}}{{end}}{{end}}", "all")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list -m: %w", err)
	}
	roots := strings.FieldsFunc(string(out), func(r rune) bool { return r == '\n' })
	for i := 0; i < len(roots); i++ {
		err := filepath.WalkDir(roots[i], func(path string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() && path != roots[i] && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			if e.Name() == "go.mod" && filepath.Dir(path) != roots[i] {
				roots = append(roots, filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	var pkgs []*Package
	for _, r := range roots {
		if seen[r] {
			continue
		}
		seen[r] = true
		loaded, err := Load(r, []string{"./..."})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}

// goList runs `go list -json` in dir; withDeps additionally walks the
// import graph and emits export-data paths.
func goList(dir string, withDeps bool, patterns []string) ([]*listPkg, error) {
	args := []string{"list", "-e", "-json=ImportPath,Dir,Export,GoFiles,Error"}
	if withDeps {
		args = append(args, "-export", "-deps")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(outPipe)
	var pkgs []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	return pkgs, nil
}

// loader resolves imports for the type checker: extra source packages
// first, then compiler export data from the build cache.
type loader struct {
	fset     *token.FileSet
	exports  map[string]string
	extraSrc map[string]string
	srcPkgs  map[string]*types.Package
	imp      types.Importer
}

// lookup feeds export data to the gc importer.
func (ld *loader) lookup(path string) (io.ReadCloser, error) {
	exp, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(exp)
}

// Import implements types.Importer. Source overlays (testdata) win;
// everything else — including packages that are themselves analysis
// targets — resolves from export data, so that every consumer of a
// dependency sees the one *types.Package the gc importer caches.
// Mixing a source-checked copy of a package into the import graph
// would give "cannot use x (*p.T) as *p.T" identity clashes.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir, ok := ld.extraSrc[path]; ok {
		if pkg, ok := ld.srcPkgs[path]; ok {
			return pkg, nil
		}
		pkg, err := ld.checkDir(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.imp.Import(path)
}

// TestLoader loads testdata corpora for the analyzer test suites: one
// export-data universe per process, with testdata directories overlaid
// as source packages under short fake import paths.
type TestLoader struct {
	ld *loader
}

// NewTestLoader builds a loader whose export-data universe covers the
// packages matching patterns in modDir (plus all their dependencies).
func NewTestLoader(modDir string, patterns []string) (*TestLoader, error) {
	ld, err := newLoader(modDir, patterns)
	if err != nil {
		return nil, err
	}
	return &TestLoader{ld: ld}, nil
}

// AddSource overlays dir as the source of importPath without loading
// it yet (for helper packages a corpus imports).
func (t *TestLoader) AddSource(importPath, dir string) {
	t.ld.extraSrc[importPath] = dir
}

// LoadDir type-checks the corpus package in dir under importPath.
func (t *TestLoader) LoadDir(importPath, dir string) (*Package, error) {
	t.ld.extraSrc[importPath] = dir
	return t.ld.checkDir(importPath, dir)
}

// check parses and type-checks one listed package from source.
func (ld *loader) check(t *listPkg) (*Package, error) {
	var files []string
	for _, f := range t.GoFiles {
		files = append(files, filepath.Join(t.Dir, f))
	}
	return ld.checkFiles(t.ImportPath, files)
}

// checkDir parses and type-checks every non-test .go file in dir
// (testdata packages, which go list refuses to enumerate).
func (ld *loader) checkDir(importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return ld.checkFiles(importPath, files)
}

// checkFiles is the shared parse + typecheck step.
func (ld *loader) checkFiles(importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", importPath)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		PkgPath: importPath,
		Fset:    ld.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	ld.srcPkgs[importPath] = tpkg
	return pkg, nil
}
