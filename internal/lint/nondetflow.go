package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fold3d/internal/lint/cfg"
	"fold3d/internal/lint/dataflow"
)

// NondetFlowCheck is the dataflow companion of mapiter and determinism: it
// tracks values tainted by a nondeterministic source — range over a map
// (arrival order), time.Now (wall clock), global math/rand state — through
// assignments, helpers (package-local call summaries) and aggregates, and
// reports when such a value reaches a fingerprint-grade sink without
// passing a normalization (sort.* or any Sort-named helper) first.
//
// Sinks: arguments of the pipeline Hasher's mix methods, arguments of any
// Fingerprint-named call or conversion, the key argument of a Cache Get or
// Put, Finding/...Result composite literals (value-nondeterminism only —
// a map-ordered VALUE is deterministic element-wise, so only wall-clock
// and rand taint corrupts a result struct), and every return of an
// exported function in an AlgoPackage.
func NondetFlowCheck() *Check {
	return &Check{
		Name: "nondetflow",
		Doc:  "track map-order, wall-clock and rand taint into fingerprints, cache keys and results (dataflow)",
		Run:  runNondetFlow,
	}
}

// orderReason is the taint reason of map-iteration sources. Order taint
// means the value's ARRIVAL ORDER is nondeterministic while each value is
// itself deterministic; value taint (wall clock, rand) means the value
// itself differs between runs. Some sinks only care about the latter.
const orderReason = "ordered by random map iteration"

// valueNondet reports whether reason denotes a nondeterministic value
// rather than a nondeterministic order.
func valueNondet(reason string) bool {
	return !strings.Contains(reason, orderReason)
}

// nondetSource classifies taint sources for package p.
func nondetSource(p *Package) func(ast.Node) string {
	return func(n ast.Node) string {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					return orderReason
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return ""
			}
			switch importedPath(p, id) {
			case "time":
				if sel.Sel.Name == "Now" {
					return "read from the wall clock (time.Now)"
				}
			case "math/rand", "math/rand/v2":
				return "drawn from math/rand"
			}
		}
		return ""
	}
}

func runNondetFlow(cfgc *Config, p *Package) []Finding {
	spec := &dataflow.TaintSpec{
		Info:      p.Info,
		Source:    nondetSource(p),
		Sanitizes: func(call *ast.CallExpr) bool { return isSortCall(p, call) },
		OrderOnly: func(reason string) bool { return !valueNondet(reason) },
	}
	funcs := dataflow.Funcs(p.Info, p.Files)
	dataflow.Summarize(spec, funcs)
	sc := &nondetScanner{p: p, spec: spec, algo: cfgc.isAlgoPackage(p.Path)}
	for _, fb := range funcBodiesOf(p, funcs) {
		sc.scan(fb)
	}
	return sc.out
}

// nondetScanner replays each function at the taint fixpoint and reports
// tainted values arriving at sinks.
type nondetScanner struct {
	p    *Package
	spec *dataflow.TaintSpec
	algo bool
	out  []Finding
}

// scan walks one body's reachable blocks in order, checking sinks against
// the facts that hold at each node before stepping the transfer over it.
func (sc *nondetScanner) scan(fb fnBody) {
	ins := dataflow.Solve(fb.graph, dataflow.Taint{}, sc.spec.Lattice())
	reach := fb.graph.Reachable()
	for _, b := range fb.graph.Blocks {
		if !reach[b.Index] {
			continue
		}
		facts := ins[b.Index].Clone()
		for _, n := range b.Nodes {
			sc.checkNode(n, fb, facts)
			sc.spec.Step(n, facts)
		}
	}
}

// checkNode inspects one block node for sink sites under the given facts.
func (sc *nondetScanner) checkNode(n ast.Node, fb fnBody, facts dataflow.Taint) {
	cfg.ShallowInspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			sc.callSinks(x, facts)
		case *ast.CompositeLit:
			sc.litSinks(x, facts)
		}
		return true
	})
	ret, ok := n.(*ast.ReturnStmt)
	if !ok || !sc.algo || !fb.exported {
		return
	}
	for _, res := range ret.Results {
		// Error returns are diagnostics, not algorithm results; their text
		// never feeds a fingerprint, and errdrop governs their handling.
		if t := sc.p.Info.TypeOf(res); t != nil && isErrorType(t) {
			continue
		}
		if reason := sc.spec.ExprTaint(res, facts); reason != "" {
			sc.report(ret.Pos(), fmt.Sprintf(
				"exported %s returns a value %s; normalize (sort) it before it leaves the algorithm package", fb.name, reason))
			return
		}
	}
}

// callSinks flags tainted arguments reaching a hashing, fingerprinting or
// cache-key call.
func (sc *nondetScanner) callSinks(call *ast.CallExpr, facts dataflow.Taint) {
	if isSortCall(sc.p, call) {
		return
	}
	name, _ := calleeName(call)
	recv := ""
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		recv = namedTypeName(sc.p.Info.TypeOf(sel.X))
	}
	sink := ""
	args := call.Args
	switch {
	case recv == "Hasher":
		sink = "the fingerprint hasher"
	case strings.Contains(name, "ingerprint"):
		sink = "a fingerprint computation"
	case recv == "Cache" && (name == "Get" || name == "Put"):
		sink = "a cache key"
		if len(args) > 1 {
			args = args[:1]
		}
	default:
		return
	}
	for _, a := range args {
		if reason := sc.spec.ExprTaint(a, facts); reason != "" {
			sc.report(a.Pos(), fmt.Sprintf("value %s reaches %s; sort or otherwise normalize it first", reason, sink))
			return
		}
	}
}

// litSinks flags value-nondeterministic elements of Finding/...Result
// composite literals: a wall-clock or rand value baked into a result
// differs between runs no matter how the collection is later ordered.
func (sc *nondetScanner) litSinks(lit *ast.CompositeLit, facts dataflow.Taint) {
	tname := namedTypeName(sc.p.Info.TypeOf(lit))
	if tname != "Finding" && !strings.HasSuffix(tname, "Result") {
		return
	}
	for _, el := range lit.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		reason := sc.spec.ExprTaint(v, facts)
		if reason == "" || !valueNondet(reason) {
			continue
		}
		sc.report(v.Pos(), fmt.Sprintf("value %s is stored into a %s; results must be reproducible, thread the value in deterministically", reason, tname))
		return
	}
}

// report appends one finding.
func (sc *nondetScanner) report(pos token.Pos, msg string) {
	sc.out = append(sc.out, Finding{Check: "nondetflow", Pos: sc.p.Fset.Position(pos), Message: msg})
}
