package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// BanKind is the kind of construct a Ban row matches.
type BanKind int

const (
	// BanImport matches an import of the path Ban.Pkg.
	BanImport BanKind = iota
	// BanFunc matches any use — a call or a function value — of a
	// package-level function named Ban.Name in a package matching Ban.Pkg.
	// Methods are never matched, so (*sta.Engine).Analyze survives a ban
	// on sta.Analyze.
	BanFunc
	// BanGo matches a bare go statement.
	BanGo
	// BanStageCall matches a direct call to a same-package stage entry
	// point: a function or method named "stage" followed by a capitalized
	// phase name (stagePlace, stageExtract). Referencing a stage as a
	// value — how stages are listed in a pipeline.Plan — is not a
	// call and stays allowed.
	BanStageCall
	// BanNestedCellsScan matches a loop over a netlist.Block's Cells that
	// sits inside another loop: `range b.Cells` or a counted loop bounded
	// by len(b.Cells). A flat top-level pass stays allowed, and a func
	// literal restarts at depth zero (a stored callback such as a sort
	// comparator is not itself a per-iteration scan).
	BanNestedCellsScan
	numBanKinds
)

// Ban is one row of the lint policy table: construct Kind is banned in
// the packages In except those in Except, and each match is reported under
// Check with Message. In and Except hold import-path suffixes; an empty In
// means every package.
type Ban struct {
	// Kind selects the construct and its matcher.
	Kind BanKind
	// Pkg is the banned import path (BanImport) or the import-path suffix
	// of the banned function's package (BanFunc); a trailing "/..." also
	// matches the packages beneath it.
	Pkg string
	// Name is the banned function's name (BanFunc); a trailing "*" makes
	// it a name prefix.
	Name string
	// In and Except scope the row.
	In, Except []string
	// Check is the check the findings report under: determinism or
	// apiguard. It is also the name a //lint:ignore directive uses.
	Check string
	// Message is the finding text; "{name}" expands to the matched import
	// path, pkgpath.Func or stage name.
	Message string
}

// appliesTo reports whether the row is in force in the package at path.
func (b *Ban) appliesTo(path string) bool {
	return (len(b.In) == 0 || matchesSuffix(path, b.In)) && !matchesSuffix(path, b.Except)
}

// finding reports one match of the row at pos.
func (b *Ban) finding(p *Package, pos token.Pos, name string) Finding {
	return Finding{
		Check:   b.Check,
		Pos:     p.Fset.Position(pos),
		Message: strings.ReplaceAll(b.Message, "{name}", name),
	}
}

// banMatchers holds one matcher per construct kind. Each walks the package
// once and tests every match against all the rows it is handed.
var banMatchers = [numBanKinds]func(p *Package, rows []*Ban) []Finding{
	BanImport:          matchImports,
	BanFunc:            matchFuncs,
	BanGo:              matchGoStmts,
	BanStageCall:       matchStageCalls,
	BanNestedCellsScan: matchNestedCellsScans,
}

// runBans runs the rows of cfg.Bans that report under check and apply to
// p, each kind through its one matcher.
func runBans(cfg *Config, p *Package, check string) []Finding {
	var byKind [numBanKinds][]*Ban
	for i := range cfg.Bans {
		b := &cfg.Bans[i]
		if b.Check == check && b.appliesTo(p.Path) {
			byKind[b.Kind] = append(byKind[b.Kind], b)
		}
	}
	var out []Finding
	for kind, rows := range byKind {
		if len(rows) > 0 {
			out = append(out, banMatchers[kind](p, rows)...)
		}
	}
	return out
}

// matchImports flags imports of banned paths, whether or not they are used.
func matchImports(p *Package, rows []*Ban) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, b := range rows {
				if b.Pkg == path {
					out = append(out, b.finding(p, imp.Pos(), path))
				}
			}
		}
	}
	return out
}

// matchFuncs flags uses of banned package-level functions. The function is
// resolved through go/types, so import renaming, dot imports and
// same-named local functions are all handled; a qualified use is reported
// at its qualifier.
func matchFuncs(p *Package, rows []*Ban) []Finding {
	var out []Finding
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var id *ast.Ident
		switch e := n.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(e.X, visit)
			id = e.Sel
		case *ast.Ident:
			id = e
		default:
			return true
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return false
		}
		for _, b := range rows {
			if pkgMatches(fn.Pkg().Path(), b.Pkg) && nameMatches(fn.Name(), b.Name) {
				out = append(out, b.finding(p, n.Pos(), fn.Pkg().Path()+"."+fn.Name()))
			}
		}
		return false
	}
	for _, file := range p.Files {
		ast.Inspect(file, visit)
	}
	return out
}

// pkgMatches reports whether the import path matches pattern: an
// import-path suffix on a segment boundary, plus the packages beneath it
// when pattern ends in "/...".
func pkgMatches(path, pattern string) bool {
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgMatches(path, base) || strings.Contains("/"+path, "/"+base+"/")
	}
	return path == pattern || strings.HasSuffix(path, "/"+pattern)
}

// nameMatches reports whether name matches pattern, where a trailing "*"
// makes pattern a prefix.
func nameMatches(name, pattern string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == pattern
}

// matchGoStmts flags every go statement.
func matchGoStmts(p *Package, rows []*Ban) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				for _, b := range rows {
					out = append(out, b.finding(p, g.Pos(), ""))
				}
			}
			return true
		})
	}
	return out
}

// matchStageCalls flags direct calls to same-package stage entry points.
func matchStageCalls(p *Package, rows []*Ban) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				id = fun.Sel
			case *ast.Ident:
				id = fun
			default:
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != p.Path || !isStageName(fn.Name()) {
				return true
			}
			for _, b := range rows {
				out = append(out, b.finding(p, call.Pos(), fn.Name()))
			}
			return true
		})
	}
	return out
}

// isStageName reports whether name follows the stage entry-point naming
// convention: "stage" followed by a capitalized phase name (stagePlace,
// stageExtract). A bare "stage..." word like "stageless" is not a stage.
func isStageName(name string) bool {
	const prefix = "stage"
	return strings.HasPrefix(name, prefix) && len(name) > len(prefix) &&
		name[len(prefix)] >= 'A' && name[len(prefix)] <= 'Z'
}

// matchNestedCellsScans flags Block.Cells scans nested inside another loop.
func matchNestedCellsScans(p *Package, rows []*Ban) []Finding {
	var out []Finding
	flag := func(n ast.Node) {
		for _, b := range rows {
			out = append(out, b.finding(p, n.Pos(), ""))
		}
	}
	var visit func(n ast.Node, depth int)
	visit = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch s := m.(type) {
			case *ast.RangeStmt:
				if depth > 0 && isCellsField(p, s.X) {
					flag(s)
				}
				visit(s.Body, depth+1)
				return false
			case *ast.ForStmt:
				if depth > 0 && s.Cond != nil && condScansCells(p, s.Cond) {
					flag(s)
				}
				visit(s.Body, depth+1)
				return false
			case *ast.FuncLit:
				visit(s.Body, 0)
				return false
			}
			return true
		})
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd.Body, 0)
			}
		}
	}
	return out
}

// isCellsField reports whether e selects the Cells field of
// internal/netlist's Block type (any import path ending there, so
// fixtures under testdata work too).
func isCellsField(p *Package, e ast.Expr) bool {
	if pe, ok := e.(*ast.ParenExpr); ok {
		return isCellsField(p, pe.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cells" {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Block" && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/netlist")
}

// condScansCells reports whether a for-loop condition is bounded by
// len(<Block>.Cells) — the counted-loop spelling of a full Cells scan.
func condScansCells(p *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "len" {
			return true
		}
		if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
			return true
		}
		if isCellsField(p, call.Args[0]) {
			found = true
		}
		return true
	})
	return found
}
