// Package sta is the static timing analyzer of the flow: a topological
// arrival/required propagation over the block's gate-level netlist with a
// first-order cell delay model (intrinsic + drive resistance times load) and
// Elmore wire delays from the extracted parasitics. It produces endpoint
// slacks, per-cell worst slacks (which the optimizer's sizing and Vth passes
// consume), and the worst/total negative slack figures the flow iterates on.
// The same engine computes the block-I/O timing budgets that the paper
// derives from chip-level 3D STA.
package sta

import (
	"fold3d/internal/netlist"
)

// Report is the outcome of one timing run.
type Report struct {
	// WNS is the worst negative slack in ps (positive if all paths meet
	// timing).
	WNS float64
	// TNS is the total negative slack in ps (0 if timing is met).
	TNS float64
	// Endpoints is the number of capture points analyzed.
	Endpoints int
	// Failing is the number of endpoints with negative slack.
	Failing int
	// CellSlack[i] is the worst path slack through cell i's output.
	CellSlack []float64
	// NetSlack[i] is the worst slack of any path through net i.
	NetSlack []float64
	// ArrOut[i] is the latest arrival time at cell i's output.
	ArrOut []float64
}

// Met reports whether every endpoint meets timing.
func (r *Report) Met() bool { return r.WNS >= 0 }

// DefaultPortBudgetFraction is the share of the clock period assumed spent
// outside the block when a port has no explicit chip-level budget.
const DefaultPortBudgetFraction = 0.30

// unset marks an arrival time the forward pass has not computed yet; noReq
// marks a required time with no constraining endpoint. Both are assigned
// sentinels — never the result of timing arithmetic — so exact equality is
// the correct membership test for them.
const (
	unset = -1e18
	noReq = 1e18
)

// isUnset reports whether an arrival time still holds the unset sentinel.
func isUnset(a float64) bool {
	//lint:ignore floatcmp unset is an assigned sentinel, never computed; exact equality is the reliable "no arrival yet" test
	return a == unset
}

// noRequired reports whether a required time still holds the noReq sentinel.
func noRequired(r float64) bool {
	//lint:ignore floatcmp noReq is an assigned sentinel, never computed; exact equality is the reliable "unconstrained endpoint" test
	return r == noReq
}

// Analyze runs STA on b. The clock period comes from the block's domain; a
// CTS-computed skew can be passed as uncertainty (subtracted from every
// endpoint's required time). It is a fresh engine's full build, discarded
// afterwards: the reference that tests compare a long-lived, incrementally
// updated Engine against. Production code holds a NewEngine and marks dirty
// sets instead; both paths produce bit-identical reports.
func Analyze(b *netlist.Block, uncertaintyPS float64) (*Report, error) {
	return NewEngine(b).Analyze(uncertaintyPS)
}
