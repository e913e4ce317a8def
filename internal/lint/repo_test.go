package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// repo caches the type-checked module across the tests that need it:
// loading it is the slow part of both.
var repo struct {
	once sync.Once
	l    *Loader
	pkgs []*Package
	err  error
}

// loadRepo type-checks every package of the fold3d module once per test
// binary.
func loadRepo(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	repo.once.Do(func() {
		repo.l, repo.err = NewLoader(".")
		if repo.err == nil {
			repo.pkgs, repo.err = repo.l.LoadModule(nil)
		}
	})
	if repo.err != nil {
		t.Fatalf("loading the module: %v", repo.err)
	}
	return repo.l, repo.pkgs
}

// TestRepoIsLintClean is the tier-1 gate: the full fold3d module must pass
// every check of the suite. A failure here means either a genuine policy
// violation (fix the code) or an intentional exception that needs a
// //lint:ignore <check> <reason> directive at the site.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	_, pkgs := loadRepo(t)
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	cfg := DefaultConfig()
	findings, _ := RunTimed(cfg, pkgs, AllChecks())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	// Every scope entry must name a loaded package: a renamed package
	// would otherwise silently escape its rule.
	scopes := map[string][]string{"AlgoPackages": cfg.AlgoPackages, "CtxPackages": cfg.CtxPackages}
	for i, b := range cfg.Bans {
		scopes[fmt.Sprintf("Bans[%d].In", i)] = b.In
		scopes[fmt.Sprintf("Bans[%d].Except", i)] = b.Except
	}
	for field, sufs := range scopes {
		for _, suf := range sufs {
			found := false
			for _, p := range pkgs {
				found = found || matchesSuffix(p.Path, []string{suf})
			}
			if !found {
				t.Errorf("%s entry %q matches no package in the module", field, suf)
			}
		}
	}
}

// TestNoDeadFunctions is the dead-code guard for package-level functions
// (no receiver) declared in non-test files under internal/. An unexported
// function needs a use in its own package's non-test files. An exported
// function needs a use in production code, in another package's tests, or
// in the fold3dbench module; its own package's tests alone do not keep it.
// A use inside the function's own body does not count. Methods are out of
// scope: they may exist to satisfy an interface.
func TestNoDeadFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	l, pkgs := loadRepo(t)

	// Uses by type-checked production code.
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		bodies := map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						bodies[fn] = fd
					}
				}
			}
		}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			fn = fn.Origin()
			if fd := bodies[fn]; fd == nil || id.Pos() < fd.Pos() || id.Pos() >= fd.End() {
				used[fn] = true
			}
		}
	}
	external := testAndBenchUses(t, l)

	prefix := l.ModPath + "/internal/"
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, prefix) {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pos := p.Fset.Position(fd.Pos())
				if !used[fn] && !(fn.Exported() && external[p.Path+"."+fn.Name()]) {
					t.Errorf("%s:%d: %s.%s has no use outside its own tests",
						filepath.Base(pos.Filename), pos.Line, p.Types.Name(), fn.Name())
				}
			}
		}
	}
}

// testAndBenchUses collects, as "importpath.Name", every package-qualified
// identifier referenced from a file the loader does not type-check: the
// module's _test.go files and every Go file of the fold3dbench module. A
// reference counts only when it crosses a package boundary, so a package's
// own external (package x_test) tests never keep its exports alive.
func testAndBenchUses(t *testing.T, l *Loader) map[string]bool {
	t.Helper()
	bench := filepath.Join(l.ModRoot, "fold3dbench")
	uses := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || (!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(path, bench+string(filepath.Separator))) {
			return nil
		}
		rel, err := filepath.Rel(l.ModRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		self := l.ModPath + "/" + filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil || ip == self {
				continue
			}
			local := ip[strings.LastIndex(ip, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					uses[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("scanning test and benchmark sources: %v", err)
	}
	return uses
}
