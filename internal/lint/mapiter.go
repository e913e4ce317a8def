package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MapIterCheck flags range loops over maps whose iteration order can leak
// into results: bodies that append to a slice declared outside the loop
// (unless a deterministic sort of that slice follows in the same block) or
// that write output directly. Go randomizes map iteration order on purpose,
// so any such loop makes a run of the flow irreproducible.
func MapIterCheck() *Check {
	return &Check{
		Name: "mapiter",
		Doc:  "flag order-dependent range-over-map loops (append without sort, direct output)",
		Run:  runMapIter,
	}
}

// writerFuncs are call names treated as "writes output" inside a map range.
var writerFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteRune": true, "WriteByte": true,
}

func runMapIter(cfg *Config, p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		bodies(file, func(body *ast.BlockStmt) {
			out = append(out, walkBlockForMapIter(p, body.List)...)
		})
	}
	return out
}

// bodies calls fn on every function body in file, each exactly once:
// declarations and literals are visited separately, and walkers below never
// descend into nested function literals themselves.
func bodies(file *ast.File, fn func(*ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body)
			}
		case *ast.FuncLit:
			fn(d.Body)
		}
		return true
	})
}

// walkBlockForMapIter scans a statement list for map ranges, tracking
// following sibling statements so an append inside the loop can be excused
// by a later sort of the same slice.
func walkBlockForMapIter(p *Package, stmts []ast.Stmt) []Finding {
	var out []Finding
	for i, s := range stmts {
		if rs, ok := s.(*ast.RangeStmt); ok && isMapRange(p, rs) {
			out = append(out, checkMapRange(p, rs, stmts[i+1:])...)
		}
		out = append(out, walkNested(p, s)...)
	}
	return out
}

// walkNested recurses into the statement lists nested inside s (loop and
// branch bodies) without descending into function literals.
func walkNested(p *Package, s ast.Stmt) []Finding {
	var out []Finding
	switch st := s.(type) {
	case *ast.BlockStmt:
		out = append(out, walkBlockForMapIter(p, st.List)...)
	case *ast.IfStmt:
		out = append(out, walkBlockForMapIter(p, st.Body.List)...)
		if st.Else != nil {
			out = append(out, walkNested(p, st.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, walkBlockForMapIter(p, st.Body.List)...)
	case *ast.RangeStmt:
		out = append(out, walkBlockForMapIter(p, st.Body.List)...)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, walkBlockForMapIter(p, cc.Body)...)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, walkBlockForMapIter(p, cc.Body)...)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, walkBlockForMapIter(p, cc.Body)...)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, walkNested(p, st.Stmt)...)
	}
	return out
}

// isMapRange reports whether rs iterates a value of map type.
func isMapRange(p *Package, rs *ast.RangeStmt) bool {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body. rest is the list of statements
// following the loop in its enclosing block, searched for excusing sorts.
func checkMapRange(p *Package, rs *ast.RangeStmt, rest []ast.Stmt) []Finding {
	var out []Finding
	// Objects appended to inside the loop, keyed by the types.Object of the
	// destination so shadowing cannot confuse the match.
	appends := map[types.Object]ast.Node{}
	inspectNoFuncLit(rs.Body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for ri, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || ri >= len(st.Lhs) {
					continue
				}
				obj := lhsObject(p, st.Lhs[ri])
				if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()) {
					// Declared inside the loop: per-iteration scratch.
					continue
				}
				appends[obj] = st
			}
		case *ast.CallExpr:
			if name, ok := calleeName(st); ok && writerFuncs[name] {
				out = append(out, Finding{
					Check: "mapiter",
					Pos:   p.Fset.Position(st.Pos()),
					Message: fmt.Sprintf(
						"%s inside range over map: iteration order is random, so output order is irreproducible; collect and sort keys first", name),
				})
			}
		}
	})
	for obj, site := range appends {
		if sortFollows(p, obj, rest) {
			continue
		}
		//lint:ignore mapiter a check may return findings in any order; RunTimed sorts every run's findings by the total findingLess order
		out = append(out, Finding{
			Check: "mapiter",
			Pos:   p.Fset.Position(site.Pos()),
			Message: fmt.Sprintf(
				"append to %q inside range over map without a following sort: element order depends on random map iteration; sort %q afterwards or iterate sorted keys", obj.Name(), obj.Name()),
		})
	}
	return out
}

// inspectNoFuncLit walks n invoking fn on every node except those inside
// nested function literals (which are analyzed as their own bodies).
func inspectNoFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			fn(m)
		}
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// lhsObject resolves an assignment destination to its declared object.
// Only plain identifiers are tracked; appends through selectors or indexes
// are conservatively ignored.
func lhsObject(p *Package, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name, true
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	}
	return "", false
}

// sortFollows reports whether any statement in rest sorts the slice held by
// obj: a call to a function in package sort or slices (or any function whose
// name contains "Sort" or "sort", covering in-module helpers like
// netlist.SortCells) that mentions obj in its arguments.
func sortFollows(p *Package, obj types.Object, rest []ast.Stmt) bool {
	found := false
	for _, s := range rest {
		if found {
			break
		}
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return true
			}
			if !isSortCall(p, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && p.Info.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
	}
	return found
}

// isSortCall reports whether call is a sorting call: sort.* / slices.Sort*
// or any callee whose name starts with "Sort" or "sort".
func isSortCall(p *Package, call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok && importedPath(p, id) == "sort" {
			return true
		}
		return sortyName(f.Sel.Name)
	case *ast.Ident:
		return sortyName(f.Name)
	}
	return false
}

// sortyName reports whether name reads as a sorting helper.
func sortyName(name string) bool {
	return strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort")
}
