package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// APIGuardCheck enforces API hygiene in internal/ and pkg/: every exported
// top-level identifier carries a doc comment (the packages are the repo's
// public surface for experiments and examples, and godoc is how the flow is
// navigated), and panic is reserved for functions on the allowlist —
// Must-prefixed helpers and entries in Config.PanicAllow. Algorithm code
// returns errors; a panic in the middle of a multi-hour sweep discards
// every completed trial. It also reports the apiguard rows of Config.Bans,
// which keep each hot path on its sanctioned engine, registry, executor or
// index.
func APIGuardCheck() *Check {
	return &Check{
		Name: "apiguard",
		Doc:  "exported identifiers in internal/ and pkg/ need doc comments; panic is allowlisted",
		Run:  runAPIGuard,
	}
}

func runAPIGuard(cfg *Config, p *Package) []Finding {
	// The table rows carry their own scopes; only the doc and panic rules
	// are gated to internal/ and pkg/.
	out := runBans(cfg, p, "apiguard")
	if !strings.Contains(p.Path, "internal/") && !strings.Contains(p.Path, "pkg/") {
		return out
	}
	for _, file := range p.Files {
		out = append(out, checkDocs(p, file)...)
		out = append(out, checkPanics(cfg, p, file)...)
	}
	return out
}

// checkDocs flags exported top-level declarations without doc comments.
func checkDocs(p *Package, file *ast.File) []Finding {
	var out []Finding
	undocumented := func(kind, name string, pos ast.Node) {
		out = append(out, Finding{
			Check:   "apiguard",
			Pos:     p.Fset.Position(pos.Pos()),
			Message: fmt.Sprintf("exported %s %s has no doc comment", kind, name),
		})
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc.Text() == "" && exportedRecv(d) {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				undocumented(kind, d.Name.Name, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" {
						undocumented("type", s.Name.Name, s.Name)
					}
				case *ast.ValueSpec:
					// A leading doc comment on the grouped decl ("// Common
					// constants...") covers every spec in the group;
					// trailing line comments do not count as documentation.
					if d.Doc.Text() != "" || s.Doc.Text() != "" {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							kind := "variable"
							if d.Tok.String() == "const" {
								kind = "constant"
							}
							undocumented(kind, name.Name, name)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether fd is a plain function or a method whose
// receiver type is itself exported — an exported method name on an
// unexported type (a heap.Interface impl, say) is not API surface and
// godoc does not render it.
func exportedRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return true
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// checkPanics flags panic calls outside allowlisted functions.
func checkPanics(cfg *Config, p *Package, file *ast.File) []Finding {
	var out []Finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if strings.HasPrefix(fd.Name.Name, "Must") || cfg.panicAllowed(p, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			out = append(out, Finding{
				Check:   "apiguard",
				Pos:     p.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("panic in %s: algorithm code must return errors (allowlist Must* helpers only)", fd.Name.Name),
			})
			return true
		})
	}
	return out
}

// panicAllowed reports whether fd matches a Config.PanicAllow entry, which
// is rendered as pkgpath.Func for functions and pkgpath.(*Type).Method or
// pkgpath.Type.Method for methods.
func (cfg *Config) panicAllowed(p *Package, fd *ast.FuncDecl) bool {
	name := p.Path + "." + fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		star := ""
		if se, ok := recv.(*ast.StarExpr); ok {
			star = "*"
			recv = se.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			if star == "*" {
				name = fmt.Sprintf("%s.(*%s).%s", p.Path, id.Name, fd.Name.Name)
			} else {
				name = fmt.Sprintf("%s.%s.%s", p.Path, id.Name, fd.Name.Name)
			}
		}
	}
	for _, a := range cfg.PanicAllow {
		if a == name {
			return true
		}
	}
	return false
}
