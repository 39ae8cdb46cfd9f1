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
)

// A Package is one type-checked, comment-preserving package ready for
// analysis.
type Package struct {
	// Path is the import path ("repro/internal/eval").
	Path string
	// Module is the path of the module the package was loaded from
	// ("repro"); the package whose Path equals it is the module's root.
	Module string
	// Dir is the absolute directory the files came from.
	Dir string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the resolved identifier/type information.
	Info *types.Info
}

// A Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved against the
// module root, standard-library imports through go/importer's
// source-mode importer (which type-checks GOROOT source and therefore
// works offline, with no compiled export data).
//
// A Loader memoizes by import path, so a module-wide run type-checks
// each package — and the stdlib closure — exactly once.
type Loader struct {
	root    string // absolute module root (directory containing go.mod)
	modPath string // module path from go.mod
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // import path -> loaded package
	loading map[string]bool     // cycle detection
}

// NewLoader returns a loader for the module rooted at dir (or any
// directory inside it — the root is found by walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// LoadAll loads every package under the module root, skipping testdata,
// hidden and underscore-prefixed directories (mirroring the go tool's
// `./...` matching). Packages come back sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isLintableGoFile(e.Name()) {
			return true
		}
	}
	return false
}

// isLintableGoFile selects the files a package load includes: .go
// sources that are not tests (test files may legitimately use wall
// clocks, environment lookups and discarded errors).
func isLintableGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// LoadDir parses and type-checks the single package in dir. Results are
// memoized by import path, so repeated loads (including loads triggered
// transitively through imports) are free.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", abs, l.root)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// dirForImport maps a module-internal import path back to its directory.
func (l *Loader) dirForImport(path string) string {
	if path == l.modPath {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.modPath+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// load is the memoized parse-and-type-check core.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintableGoFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Module: l.modPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path, l.dirForImport(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
