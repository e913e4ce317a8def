package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fold3d/internal/lint/cfg"
	"fold3d/internal/lint/dataflow"
)

// LockBalanceCheck verifies sync.Mutex/RWMutex discipline with path
// sensitivity the syntax checks lack: every Lock (and RLock) must be
// released on EVERY path to the function's exit — early returns included —
// either by an explicit Unlock on the path or by a registered
// `defer mu.Unlock()` (which also covers panic unwinds); a second Lock of
// the same mutex while it is already held is a self-deadlock; and no lock
// may be held across a blocking operation (channel ops, selects, sync
// Waits, pool submission, in-package blocking calls), where a parked
// goroutine keeps every other locker waiting behind it.
//
// Mutexes are keyed by the receiver expression text (m.mu, j.mu), with a
// separate key for the read side of an RWMutex, so independent locks never
// alias. Reads and writes through different variables that alias the same
// mutex are out of scope.
func LockBalanceCheck() *Check {
	return &Check{
		Name: "lockbalance",
		Doc:  "every Lock released on all paths; no lock held across a blocking op (dataflow)",
		Run:  runLockBalance,
	}
}

// Lock states. lockHeld dominates lockHeldDefer at joins: if any path into
// a block still owes an explicit Unlock, the block does.
const (
	lockHeldDefer = 1 // release registered via defer; safe at exit
	lockHeld      = 2 // must be explicitly unlocked before exit
)

// lockFact is the state of one mutex key with the Lock site that produced
// it (findings point at the Lock, where the fix goes).
type lockFact struct {
	state int
	pos   token.Pos
}

// lockFacts maps mutex keys to their lock state.
type lockFacts map[string]lockFact

// lockLattice wires lock-state tracking into the fixpoint solver.
func lockLattice(p *Package) dataflow.Lattice[lockFacts] {
	return dataflow.Lattice[lockFacts]{
		Bottom: func() lockFacts { return lockFacts{} },
		Clone: func(s lockFacts) lockFacts {
			out := make(lockFacts, len(s))
			for k, v := range s {
				out[k] = v
			}
			return out
		},
		Join: func(dst, src lockFacts) lockFacts {
			for k, v := range src {
				if d, ok := dst[k]; !ok || v.state > d.state {
					dst[k] = v
				}
			}
			return dst
		},
		Equal: func(a, b lockFacts) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				d, ok := b[k]
				if !ok || d.state != v.state {
					return false
				}
			}
			return true
		},
		Transfer: func(b *cfg.Block, in lockFacts) lockFacts {
			for _, n := range b.Nodes {
				lockStep(p, n, in, nil)
			}
			return in
		},
	}
}

// lockStep applies one node's mutex operations to the facts. When report is
// non-nil it receives (key, fact) for every double-Lock encountered.
func lockStep(p *Package, n ast.Node, facts lockFacts, report func(key string, prev lockFact, call *ast.CallExpr)) {
	if d, ok := n.(*ast.DeferStmt); ok {
		// defer mu.Unlock(): the release now runs on every exit, including
		// panic unwinds; the lock no longer needs a path-explicit Unlock.
		if key, kind, ok := mutexOp(p, d.Call); ok && kind == "unlock" {
			if f, held := facts[key]; held {
				facts[key] = lockFact{state: lockHeldDefer, pos: f.pos}
			}
		}
		return
	}
	cfg.ShallowInspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.GoStmt); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, kind, ok := mutexOp(p, call)
		if !ok {
			return true
		}
		if kind == "lock" {
			if prev, held := facts[key]; held && prev.state == lockHeld && report != nil {
				report(key, prev, call)
			}
			facts[key] = lockFact{state: lockHeld, pos: call.Pos()}
		} else {
			delete(facts, key)
		}
		return true
	})
}

// mutexOp classifies a call as a lock or unlock of a keyed mutex: a method
// named Lock/Unlock/RLock/RUnlock resolving into package sync (embedding
// included), keyed by the receiver expression (":r" suffix for the read
// side).
func mutexOp(p *Package, call *ast.CallExpr) (key, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := p.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock":
		return key, "lock", true
	case "Unlock":
		return key, "unlock", true
	case "RLock":
		return key + ":r", "lock", true
	case "RUnlock":
		return key + ":r", "unlock", true
	}
	return "", "", false
}

func runLockBalance(cfgc *Config, p *Package) []Finding {
	bi := newBlockInfo(p)
	var out []Finding
	for _, fb := range funcBodiesOf(p, dataflow.Funcs(p.Info, p.Files)) {
		out = append(out, lockScanFunc(p, bi, fb)...)
	}
	return out
}

// lockScanFunc solves one body to its lock-state fixpoint and reports
// unbalanced paths, double locks and locks held across blocking points.
func lockScanFunc(p *Package, bi *blockInfo, fb fnBody) []Finding {
	lat := lockLattice(p)
	ins := dataflow.Solve(fb.graph, lockFacts{}, lat)
	reach := fb.graph.Reachable()
	var out []Finding
	seenAcross := map[string]bool{} // dedup key+pos for held-across findings
	for _, b := range fb.graph.Blocks {
		if !reach[b.Index] {
			continue
		}
		facts := lat.Clone(ins[b.Index])
		for _, n := range b.Nodes {
			// Blocking ops are checked BEFORE the node's own mutex ops so a
			// Lock and a blocking call inside one statement do not flag
			// themselves, and a trailing Unlock cannot retroactively excuse
			// an earlier wait.
			for _, op := range bi.nodeOps(n) {
				// sync.Cond.Wait atomically releases its locker while
				// parked and reacquires before returning — holding a lock
				// at a cond wait is the canonical condvar loop, not a
				// parked-goroutine-blocks-lockers bug.
				if op.desc == "sync.Cond.Wait" {
					continue
				}
				for _, key := range sortedLockKeys(facts) {
					dk := fmt.Sprintf("%s@%d", key, op.pos)
					if seenAcross[dk] {
						continue
					}
					seenAcross[dk] = true
					out = append(out, Finding{
						Check: "lockbalance",
						Pos:   p.Fset.Position(op.pos),
						Message: fmt.Sprintf(
							"%s is held across blocking %s: a parked goroutine keeps every other locker waiting; unlock before blocking", lockName(key), op.desc),
					})
				}
			}
			// Returns exit with the facts as they stand here; a plain held
			// lock at a return is the classic early-return leak.
			if _, ok := n.(*ast.ReturnStmt); ok {
				out = append(out, lockExitFindings(p, facts)...)
			}
			lockStep(p, n, facts, func(key string, prev lockFact, call *ast.CallExpr) {
				out = append(out, Finding{
					Check: "lockbalance",
					Pos:   p.Fset.Position(call.Pos()),
					Message: fmt.Sprintf(
						"%s locked again while already held (locked at line %d): self-deadlock on some path", lockName(key), p.Fset.Position(prev.pos).Line),
				})
			})
		}
	}
	// Falling off the end of the body: the exit block's IN facts are the
	// join over every fall-through path (returns were handled above; their
	// OUT facts still flow here, but anything they leaked was already
	// reported at the return, and the join keeps the same state+pos, so the
	// dedup below absorbs the overlap).
	out = append(out, lockExitFindings(p, ins[fb.graph.Exit.Index])...)
	return dedupFindings(out)
}

// sortedLockKeys returns the fact keys in sorted order so reporting order
// never depends on map iteration.
func sortedLockKeys(facts lockFacts) []string {
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockExitFindings reports locks still in the plain held state at an exit
// point, anchored at the Lock site (where the missing release belongs).
func lockExitFindings(p *Package, facts lockFacts) []Finding {
	var out []Finding
	for _, key := range sortedLockKeys(facts) {
		f := facts[key]
		if f.state != lockHeld {
			continue
		}
		out = append(out, Finding{
			Check: "lockbalance",
			Pos:   p.Fset.Position(f.pos),
			Message: fmt.Sprintf(
				"%s is not released on every path to return: add `defer %s` right after the Lock or unlock before each return", lockName(key), unlockCallFor(key)),
		})
	}
	return out
}

// lockName renders a mutex key for messages ("m.mu", "m.mu (read side)").
func lockName(key string) string {
	if base, ok := strings.CutSuffix(key, ":r"); ok {
		return base + " (read side)"
	}
	return key
}

// unlockCallFor renders the release call matching a key's lock side.
func unlockCallFor(key string) string {
	if base, ok := strings.CutSuffix(key, ":r"); ok {
		return base + ".RUnlock()"
	}
	return key + ".Unlock()"
}

// dedupFindings removes exact duplicates (same position, check, message)
// that the exit-join overlap can produce. Sorting by the total findingLess
// order makes every duplicate adjacent to its twin.
func dedupFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool { return findingLess(fs[i], fs[j]) })
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}
