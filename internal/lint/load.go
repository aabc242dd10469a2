package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// A Package is one loaded, parsed and type-checked package, ready for
// analysis.
type Package struct {
	// Path is the package's import path (module-derived for repository
	// packages, the raw import string for fixture packages).
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errors holds type-checking problems. A package with errors still
	// carries whatever syntax and type information was recovered, but
	// analyzers should not be trusted on it.
	Errors []error
}

// Config controls package loading.
type Config struct {
	// Dir is the directory patterns are resolved against (the working
	// directory when empty). The enclosing module is discovered by
	// walking up to go.mod.
	Dir string
	// Tests includes in-package *_test.go files. External test packages
	// (package foo_test) are never loaded; `go vet` covers those.
	Tests bool
	// SrcDirs are extra roots that resolve imports which are neither
	// module-internal nor standard library, GOPATH-style: import "par"
	// is looked up as <srcdir>/par. The fixture harness uses this.
	SrcDirs []string
}

// Loader loads packages on demand, caching by import path, and doubles as
// the types.Importer used during type checking. Module-internal and
// SrcDirs packages are parsed and checked from source by the loader
// itself; everything else is delegated to the standard library's source
// importer (go/importer "source"), which resolves from $GOROOT/src — no
// compiled export data, no x/tools, no go-command subprocesses.
type Loader struct {
	cfg    Config
	fset   *token.FileSet
	module string // module path from go.mod
	root   string // directory containing go.mod
	std    types.Importer
	pkgs   map[string]*Package
	active map[string]bool // cycle detection
}

// NewLoader creates a loader for the module enclosing cfg.Dir.
func NewLoader(cfg Config) (*Loader, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, module, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		cfg:    cfg,
		fset:   fset,
		module: module,
		root:   root,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		active: map[string]bool{},
	}, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		gomod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("lint: no module directive in %s", gomod)
			}
			return d, string(m[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given patterns ("./...", "./internal/par", a plain
// directory) to directories, then loads, parses and type-checks each as a
// package. Loading continues past type errors; they are accumulated on
// the returned packages.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	base := l.cfg.Dir
	if base == "" {
		base = "."
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			start := filepath.Join(base, rest)
			err := filepath.WalkDir(start, func(path string, de os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !de.IsDir() {
					return nil
				}
				name := de.Name()
				if path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(base, pat))
	}
	var out []*Package
	var firstErr error
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", dir, err)
			}
			continue
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, firstErr
}

// hasGoFiles reports whether dir directly contains at least one .go file.
func hasGoFiles(dir string) bool {
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

// loadDir loads the package in dir under its module-derived import path.
// It returns (nil, nil) for directories holding only files excluded by
// build constraints or only an external test package.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.module
	if rel, err := filepath.Rel(l.root, abs); err == nil && rel != "." {
		if strings.HasPrefix(rel, "..") {
			path = filepath.ToSlash(rel) // outside the module: label by dir
		} else {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
	}
	return l.load(path, abs)
}

// Import implements types.Importer: module-internal and SrcDirs imports
// load from source through the cache; "unsafe" maps to types.Unsafe;
// everything else is treated as standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.resolve(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no buildable Go files for %q in %s", path, dir)
		}
		if len(pkg.Errors) > 0 {
			return pkg.Types, pkg.Errors[0]
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// resolve maps an import path to a source directory the loader owns:
// module-internal paths map into the module tree, bare paths are looked
// up in SrcDirs.
func (l *Loader) resolve(path string) (string, bool) {
	if path == l.module {
		return l.root, true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), true
	}
	for _, src := range l.cfg.SrcDirs {
		dir := filepath.Join(src, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	return "", false
}

// load parses and type-checks the package in dir, caching under path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		Files: files,
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, pkg.Info)
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// buildContext decides which files build: go/build's rules for
// //go:build lines and GOOS/GOARCH file-name suffixes on the running
// platform, with cgo off because the loader type-checks no cgo file.
var buildContext = func() build.Context {
	c := build.Default
	c.CgoEnabled = false
	return c
}()

// parseDir parses the buildable files of the package in dir, as
// buildContext selects them (//go:build lines, GOOS/GOARCH suffixes, a
// leading "_" or "."): the non-test files plus, when cfg.Tests is set,
// the in-package test files. External test files (package foo_test) are
// always skipped.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := buildContext.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if l.cfg.Tests {
		names = append(names, bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// FirstError returns the first type-checking error across pkgs, or nil.
func FirstError(pkgs []*Package) error {
	var errs []string
	for _, p := range pkgs {
		for _, e := range p.Errors {
			errs = append(errs, e.Error())
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(errs, "\n"))
}
