package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"fold3d/internal/lint/cfg"
	"fold3d/internal/lint/dataflow"
)

// CtxFlowCheck enforces, in the service-layer packages (Config.
// CtxPackages), that a received context.Context actually guards every
// blocking operation on every CFG path: channel sends and receives must sit
// in a select with a live <-ctx.Done() case, blocking calls (pool
// submission, sync Waits, in-package blocking helpers) must be handed the
// live context, and rebinding a context variable to context.Background()/
// TODO() — shadowing the caller's cancellation — is flagged where it
// happens.
//
// Liveness is a must-analysis: a context object counts as live at a node
// only when it is parameter-derived (directly, or via context.With*) on ALL
// paths reaching the node. Only function bodies that receive a
// context.Context parameter are checked; bodies without one have no
// cancellation contract to honor.
func CtxFlowCheck() *Check {
	return &Check{
		Name: "ctxflow",
		Doc:  "received ctx must guard every blocking op on all paths (dataflow, CtxPackages only)",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(cfgc *Config, p *Package) []Finding {
	if !matchesSuffix(p.Path, cfgc.CtxPackages) {
		return nil
	}
	bi := newBlockInfo(p)
	var out []Finding
	for _, fb := range funcBodiesOf(p, dataflow.Funcs(p.Info, p.Files)) {
		out = append(out, ctxScanFunc(p, bi, fb)...)
	}
	return out
}

// ctxFacts is the must-live set: context objects guaranteed to carry the
// caller's cancellation on every path to the current point.
type ctxFacts map[types.Object]bool

// ctxLattice wires context liveness into the fixpoint solver.
func ctxLattice(p *Package) dataflow.Lattice[ctxFacts] {
	return dataflow.Lattice[ctxFacts]{
		Bottom: func() ctxFacts { return ctxFacts{} },
		Clone: func(s ctxFacts) ctxFacts {
			out := make(ctxFacts, len(s))
			for k, v := range s {
				out[k] = v
			}
			return out
		},
		Join: func(dst, src ctxFacts) ctxFacts {
			// Must-analysis: live only when live on every joined path.
			for k := range dst {
				if !src[k] {
					delete(dst, k)
				}
			}
			return dst
		},
		Equal: func(a, b ctxFacts) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(b *cfg.Block, in ctxFacts) ctxFacts {
			for _, n := range b.Nodes {
				ctxStep(p, n, in)
			}
			return in
		},
	}
}

// ctxStep updates liveness across one node: an assignment to a
// context-typed variable keeps the destination live exactly when its source
// is a live context (possibly wrapped by context.With*); anything else —
// context.Background(), context.TODO() — kills it.
func ctxStep(p *Package, n ast.Node, facts ctxFacts) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := lhsObject(p, id)
		if obj == nil || !isContextType(obj.Type()) {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			// ctx, cancel := context.WithCancel(parent): liveness of the
			// call covers every destination.
			rhs = as.Rhs[0]
		}
		if rhs != nil && ctxExprLive(p, rhs, facts) {
			facts[obj] = true
		} else {
			delete(facts, obj)
		}
	}
}

// ctxExprLive reports whether a context-valued expression carries the
// caller's cancellation: a live object, a context.With* derivation of one,
// or an external producer call (req.Context()) trusted to be real.
// context.Background() and context.TODO() are dead by definition.
func ctxExprLive(p *Package, e ast.Expr, facts ctxFacts) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		return obj != nil && facts[obj]
	case *ast.ParenExpr:
		return ctxExprLive(p, x.X, facts)
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && importedPath(p, id) == "context" {
				switch sel.Sel.Name {
				case "Background", "TODO":
					return false
				case "WithCancel", "WithTimeout", "WithDeadline", "WithValue":
					return len(x.Args) > 0 && ctxExprLive(p, x.Args[0], facts)
				}
			}
		}
		// External producers (http.Request.Context, ...) return the real
		// request-scoped context.
		return true
	case *ast.SelectorExpr:
		// A context stored in a struct field was placed there by a caller;
		// trust it.
		return true
	default:
		return false
	}
}

// ctxParamObjs resolves the context.Context parameters of a signature.
func ctxParamObjs(p *Package, ftype *ast.FuncType) []types.Object {
	var out []types.Object
	if ftype == nil || ftype.Params == nil {
		return nil
	}
	for _, f := range ftype.Params.List {
		for _, name := range f.Names {
			if obj := p.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// ctxScanFunc analyzes one body that receives a context parameter.
func ctxScanFunc(p *Package, bi *blockInfo, fb fnBody) []Finding {
	params := ctxParamObjs(p, fb.ftype)
	if len(params) == 0 {
		return nil
	}
	boundary := ctxFacts{}
	for _, obj := range params {
		boundary[obj] = true
	}
	lat := ctxLattice(p)
	ins := dataflow.Solve(fb.graph, boundary, lat)
	reach := fb.graph.Reachable()
	var out []Finding
	for _, b := range fb.graph.Blocks {
		if !reach[b.Index] {
			continue
		}
		facts := lat.Clone(ins[b.Index])
		for _, n := range b.Nodes {
			out = append(out, ctxNodeFindings(p, bi, n, facts)...)
			ctxStep(p, n, facts)
		}
	}
	return out
}

// ctxNodeFindings reports the violations visible at one node under the
// current liveness facts.
func ctxNodeFindings(p *Package, bi *blockInfo, n ast.Node, facts ctxFacts) []Finding {
	var out []Finding
	if as, ok := n.(*ast.AssignStmt); ok {
		out = append(out, ctxShadowFindings(p, as, facts)...)
	}
	for _, op := range bi.nodeOps(n) {
		switch {
		case op.sel != nil:
			if !ctxSelAware(p, op.sel, facts) {
				out = append(out, Finding{
					Check:   "ctxflow",
					Pos:     p.Fset.Position(op.pos),
					Message: "select blocks without a live <-ctx.Done() case: the received ctx cannot cancel this wait",
				})
			}
		case op.call != nil:
			out = append(out, ctxCallFindings(p, op, facts)...)
		default:
			out = append(out, Finding{
				Check:   "ctxflow",
				Pos:     p.Fset.Position(op.pos),
				Message: fmt.Sprintf("blocking %s is not selectable on the received ctx: wrap it in a select with a <-ctx.Done() case", op.desc),
			})
		}
	}
	return out
}

// ctxShadowFindings flags assignments that rebind or shadow a live context
// variable with a dead one (context.Background()/TODO()): every use below
// silently loses the caller's cancellation.
func ctxShadowFindings(p *Package, as *ast.AssignStmt, facts ctxFacts) []Finding {
	var out []Finding
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := lhsObject(p, id)
		if obj == nil || !isContextType(obj.Type()) {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil || ctxExprLive(p, rhs, facts) {
			continue
		}
		// Dead RHS. A finding only when this kills or shadows a live
		// context: the object itself was live, or a live object of the same
		// name is being shadowed by a := in an inner scope.
		hides := facts[obj]
		for live := range facts {
			if live.Name() == id.Name {
				hides = true
			}
		}
		if hides {
			out = append(out, Finding{
				Check:   "ctxflow",
				Pos:     p.Fset.Position(id.Pos()),
				Message: fmt.Sprintf("context %q is rebound to a dead context (Background/TODO), dropping the caller's cancellation; derive with context.With* instead", id.Name),
			})
		}
	}
	return out
}

// ctxCallFindings checks a blocking call: it must be handed a live context
// argument, so the callee can bound its own wait.
func ctxCallFindings(p *Package, op blockOp, facts ctxFacts) []Finding {
	hasCtxArg, liveArg := false, false
	for _, a := range op.call.Args {
		if !isContextType(p.Info.TypeOf(a)) {
			continue
		}
		hasCtxArg = true
		if ctxExprLive(p, a, facts) {
			liveArg = true
		}
	}
	if liveArg {
		return nil
	}
	msg := fmt.Sprintf("blocking %s does not receive the live ctx; pass the received ctx so cancellation propagates", op.desc)
	if hasCtxArg {
		msg = fmt.Sprintf("blocking %s is passed a dead context (Background/TODO) instead of the received ctx", op.desc)
	}
	return []Finding{{Check: "ctxflow", Pos: p.Fset.Position(op.pos), Message: msg}}
}

// ctxSelAware reports whether sel has a <-x.Done() case on a LIVE context
// under facts (a Done case on a shadowed Background context never fires).
func ctxSelAware(p *Package, sel *ast.SelectStmt, facts ctxFacts) bool {
	aware := false
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil || aware {
			continue
		}
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if x := doneRecvCtx(p, n); x != nil && ctxExprLive(p, x, facts) {
				aware = true
			}
			return !aware
		})
	}
	return aware
}
