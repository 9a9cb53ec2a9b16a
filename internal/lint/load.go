package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/flow"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-check errors. Analysis still runs; the CLI
	// surfaces them as warnings so a broken build never silently passes.
	TypeErrors []error

	// flowIdx caches the interprocedural index (call graph + summaries) so
	// the four concurrency analyzers build it once per package.
	flowIdx *flow.Index
}

// Loader loads and type-checks packages of one module from source. Imports
// inside the module resolve recursively through the loader itself; standard
// library imports go through the stdlib's own source importer, keeping the
// whole pipeline dependency-free.
type Loader struct {
	Fset *token.FileSet

	modPath string
	modDir  string
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import cycle guard
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModuleDir returns the root directory of the loaded module.
func (l *Loader) ModuleDir() string { return l.modDir }

// findModule walks upward from dir to the first go.mod and parses its module
// path.
func findModule(dir string) (modDir, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		//lint:ignore vfsseam the lint loader reads module metadata from the real filesystem; it is tooling, not a persistence path
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					path := strings.TrimSpace(rest)
					if path == "" {
						break
					}
					return dir, path, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadAll loads every package in the module, skipping testdata, hidden and
// underscore-prefixed directories (the go tool's convention).
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	//lint:ignore vfsseam the lint loader enumerates Go source from the real filesystem; it is tooling, not a persistence path
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir (which may live outside the module, e.g.
// a testdata fixture). It returns nil when the directory holds no non-test
// Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(l.importPathFor(dir), dir)
}

// importPathFor maps a directory to its import path; directories outside the
// module get a synthetic path so fixtures can be loaded in isolation.
func (l *Loader) importPathFor(dir string) string {
	if rel, err := filepath.Rel(l.modDir, dir); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return "lintfixture/" + filepath.Base(dir)
}

// Import implements types.Importer: module-internal paths load from source,
// everything else (the standard library) goes through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := l.modDir
		if path != l.modPath {
			dir = filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	//lint:ignore vfsseam the lint loader reads Go source from the real filesystem; it is tooling, not a persistence path
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var pkgName string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			continue // stray file from another package; mirror go/build's laxness
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info) // errors collected above
	pkg.Pkg = tpkg
	pkg.Info = info
	l.pkgs[path] = pkg
	return pkg, nil
}
