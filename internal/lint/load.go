package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fold3d/internal/pool"
)

// Package is one parsed and type-checked package, the unit every check
// operates on.
type Package struct {
	// Path is the package import path (module-relative for module
	// packages, the directory base name for fixtures).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset maps AST positions back to file:line.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the expression-level type information checks rely on.
	Info *types.Info
}

// Loader parses and type-checks packages on demand. In-module import paths
// are resolved by re-entering the loader (the "small in-module import
// resolver" — go/build only filters files, no external tooling); everything
// else, i.e. the standard library, is resolved from GOROOT source via
// go/importer.
type Loader struct {
	// ModRoot is the absolute module root (directory holding go.mod).
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*Package // by import path
	loading   map[string]bool     // cycle guard
	preparsed map[string][]*ast.File
	loadErrs  []string
}

// NewLoader returns a loader rooted at the module containing dir. It reads
// go.mod to learn the module path.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot:   root,
		ModPath:   modPath,
		fset:      fset,
		std:       importer.ForCompiler(fset, "source", nil),
		pkgs:      map[string]*Package{},
		loading:   map[string]bool{},
		preparsed: map[string][]*ast.File{},
	}, nil
}

// findModRoot walks up from dir to the directory containing go.mod.
func findModRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
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
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule loads every non-testdata package under the module root whose
// import path matches one of the patterns ("./..." and "..." match all;
// "internal/place" matches that package; a trailing "/..." matches the
// subtree). Packages are returned sorted by import path.
//
// Parsing runs in parallel (one pool task per directory, each writing its
// own slot; the file set is synchronized internally); type-checking stays
// sequential because it recurses through the import graph. A package that
// fails to parse or type-check is skipped and recorded — retrieve the
// diagnostics with Errors — rather than aborting the whole load, so one
// broken package cannot hide findings in the rest of the module.
func (l *Loader) LoadModule(patterns []string) ([]*Package, error) {
	var dirs, imps []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		imp := l.ModPath
		if rel != "." {
			imp = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		imps = append(imps, imp)
	}

	// Parallel parse into per-index slots, then publish the results to the
	// preparsed cache before any (sequential) type-checking reads it.
	parsed := make([][]*ast.File, len(dirs))
	parseErrs := make([]error, len(dirs))
	_ = pool.Run(context.Background(), 0, len(dirs), func(_ context.Context, i int) error {
		parsed[i], parseErrs[i] = l.parseDir(dirs[i])
		return nil
	})
	for i, dir := range dirs {
		if parseErrs[i] == nil {
			l.preparsed[dir] = parsed[i]
		}
	}

	var out []*Package
	for i, dir := range dirs {
		imp := imps[i]
		if !matchAny(patterns, strings.TrimPrefix(strings.TrimPrefix(imp, l.ModPath), "/")) {
			continue
		}
		if parseErrs[i] != nil {
			l.loadErrs = append(l.loadErrs, parseErrs[i].Error())
			continue
		}
		if len(parsed[i]) == 0 {
			continue // no buildable non-test Go sources
		}
		p, err := l.load(imp, dir)
		if err != nil {
			l.loadErrs = append(l.loadErrs, err.Error())
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Errors returns the diagnostics of packages LoadModule skipped because
// they failed to parse or type-check.
func (l *Loader) Errors() []string {
	return append([]string(nil), l.loadErrs...)
}

// matchAny reports whether the module-relative path rel matches any pattern.
func matchAny(patterns []string, rel string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" || pat == rel {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") || sub == "." {
				return true
			}
		}
	}
	return false
}

// LoadDir loads a single directory outside the normal module layout (used
// for testdata fixtures) under the given import path. Fixture imports of
// module packages resolve through the loader as usual.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(importPath, abs)
}

// Import implements types.Importer: module-internal paths re-enter the
// loader, everything else falls through to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := filepath.Join(l.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/"))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir, caching by import path.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, ok := l.preparsed[dir]
	if !ok {
		var err error
		files, err = l.parseDir(dir)
		if err != nil {
			return nil, err
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s (after build-constraint filtering)", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, firstErr)
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// parseDir parses the buildable, non-test Go sources of dir in file-name
// order. go/build's MatchFile decides which files the go tool would
// compile for the running platform — it reads only file names and headers
// (_GOOS/_GOARCH suffixes, //go:build lines) and never runs the go
// command — so the linter never type-checks a file the build would skip.
// Safe for concurrent use: the file set synchronizes internally and
// everything else is local.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: reading %s: %v", name, err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}
