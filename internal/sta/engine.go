// engine.go is the persistent incremental timing engine. A full build
// (rebuild) and the cone-limited incremental update funnel every number
// through the same per-node helpers — computeCellDelay, arrAtSink,
// requiredAtSink — and share the finish pass that folds endpoint slacks
// into the report, so an incremental Analyze returns bit-identical floats
// to a from-scratch one. DESIGN.md §10 documents the invariant;
// TestIncrementalFullEquivalence (internal/opt) enforces it.

package sta

import (
	"fmt"

	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

// Engine is a persistent static timing analyzer bound to one block. It
// caches the topological order, the driver/fanin adjacency and every
// arrival/required/slack array between calls; after MarkCellDirty and
// MarkNetDirty it re-propagates arrivals only through the dirty cells'
// transitive fanout cones and required times only through the affected
// fanin cones, seeded from a worklist. Structural edits (cell or net count
// changes), uncertainty changes and InvalidateTopology fall back to a full
// build. Results are exactly — bit for bit — what a fresh full Analyze
// would produce. An Engine is not safe for concurrent use.
type Engine struct {
	b           *netlist.Block
	uncertainty float64
	period      float64
	built       bool
	full        bool
	nc, nn      int

	driverNet []int32   // cell -> driven signal net (-1 if none)
	fanin     [][]int32 // cell -> signal nets feeding it, in net order
	faninIx   []int32   // arena backing the fanin lists
	order     []int32   // topological order over combinational cells
	pos       []int32   // cell -> index in order (-1 for sequential)
	isSeq     []bool    // cell -> master family is sequential (flat mirror)
	pinCap    []float64 // cell -> master input pin cap in fF (flat mirror)
	cellDelay []float64
	arr       []float64
	req       []float64
	netReq    []float64

	// Endpoint bookkeeping: endNet/endSink list every endpoint in the
	// discovery order of the full pass (net order, then sink order), and
	// endSlack holds its latest slack (the unset sentinel when the full
	// pass would have skipped it). netEnd[ni]:netEnd[ni+1] spans the
	// endpoints of net ni, so a dirty net re-slacks only its own.
	endNet   []int32
	endSink  []int32
	endSlack []float64
	netEnd   []int32

	rep Report

	// Dirty state accumulated between Analyze calls.
	dirtyCells []int32
	dirtyNets  []int32
	cellDirty  []bool
	netDirty   []bool

	// Worklist scratch, reused across updates. The forward and backward
	// re-propagations are marked sweeps over the cached topological order:
	// queued[ci] flags a cell for recompute and the sweep walks order
	// positions between the lowest and highest flagged ones, so the pop
	// sequence is exactly the full pass's order without a priority queue.
	queued    []bool
	seqSeeds  []int32
	delayList []int32
	delayMark []bool
	boundList []int32
	boundMark []bool
	endList   []int32
	endMark   []bool
	indeg     []int32
}

// NewEngine returns a persistent timing engine for b. The first Analyze
// runs a full build; later calls re-propagate only the cones invalidated
// through MarkCellDirty/MarkNetDirty, with bit-identical results.
func NewEngine(b *netlist.Block) *Engine { return &Engine{b: b} }

// Block returns the block this engine analyzes.
func (e *Engine) Block() *netlist.Block { return e.b }

// MarkCellDirty records that cell ci's master changed, so its stage delay,
// its launch/propagation arrivals and the required times upstream of it
// must be re-derived on the next Analyze. This covers master swaps that
// keep the cell's geometry and input caps (a Vth swap); a resize also
// moves the cell's pins, so callers must additionally re-extract and
// MarkNetDirty every net the cell drives or loads.
func (e *Engine) MarkCellDirty(ci int32) {
	if !e.built || int(ci) >= len(e.cellDirty) {
		e.full = true
		return
	}
	if !e.cellDirty[ci] {
		e.cellDirty[ci] = true
		e.dirtyCells = append(e.dirtyCells, ci)
	}
	// Keep the flat master mirrors in step with the swap (family swaps never
	// cross the sequential boundary today, but the mirrors must not assume
	// it, and resizes do change the input cap).
	m := e.b.Cells[ci].Master
	e.isSeq[ci] = m.Fam.IsSequential()
	e.pinCap[ci] = m.InCapfF
}

// MarkNetDirty records that net ni's parasitics changed (re-extraction
// after a pin moved or a sink's input cap changed): its wire delays, its
// driver's load and every arrival/required crossing it are re-derived on
// the next Analyze.
func (e *Engine) MarkNetDirty(ni int32) {
	if !e.built || int(ni) >= len(e.netDirty) {
		e.full = true
		return
	}
	if !e.netDirty[ni] {
		e.netDirty[ni] = true
		e.dirtyNets = append(e.dirtyNets, ni)
	}
}

// InvalidateTopology drops every cached result, forcing the next Analyze
// to run a full build. Required after edits the mark API cannot describe:
// placement moves without re-extraction, port or macro changes, or a full
// re-extraction of the block.
func (e *Engine) InvalidateTopology() { e.full = true }

// Rebind points the engine at a different block, keeping every scratch and
// result array for capacity reuse (the flow recycles one engine across a
// chip's blocks instead of re-allocating the ~20 per-cell arrays each
// build). The next Analyze runs a full build; a rebound engine's results
// are exactly a fresh engine's.
func (e *Engine) Rebind(b *netlist.Block) {
	e.b = b
	e.built = false
	e.full = true
}

// DriverNets returns the cached cell-to-driven-signal-net map (-1 when a
// cell drives none). It is valid after a successful Analyze and until the
// netlist structure changes; callers must not modify it.
func (e *Engine) DriverNets() []int32 { return e.driverNet }

// FaninNets returns the cached signal nets feeding cell ci, in net-index
// order. Same validity rules as DriverNets; callers must not modify it.
func (e *Engine) FaninNets(ci int32) []int32 { return e.fanin[ci] }

// Analyze computes the block's timing. The first call — and any call
// after a structural change, an uncertainty change or InvalidateTopology —
// runs a full build; otherwise only the cones reachable from the marked
// dirty cells and nets are re-propagated. The returned Report and its
// slices are owned by the engine and valid until the next Analyze call;
// callers keeping results across calls must copy them.
func (e *Engine) Analyze(uncertaintyPS float64) (*Report, error) {
	structural := !e.built || len(e.b.Cells) != e.nc || len(e.b.Nets) != e.nn
	//lint:ignore floatcmp the uncertainty is caller-assigned, never computed; any change invalidates every required time exactly
	uncChanged := uncertaintyPS != e.uncertainty
	if e.full || structural || uncChanged {
		e.uncertainty = uncertaintyPS
		if err := e.rebuild(); err != nil {
			return nil, err
		}
		e.built = true
		e.full = false
		e.clearDirty()
		e.finish()
		return &e.rep, nil
	}
	if len(e.dirtyCells) > 0 || len(e.dirtyNets) > 0 {
		e.update()
		e.clearDirty()
		e.finish()
	}
	return &e.rep, nil
}

// clearDirty resets the marks and truncates the dirty lists.
func (e *Engine) clearDirty() {
	for _, ci := range e.dirtyCells {
		if int(ci) < len(e.cellDirty) {
			e.cellDirty[ci] = false
		}
	}
	for _, ni := range e.dirtyNets {
		if int(ni) < len(e.netDirty) {
			e.netDirty[ni] = false
		}
	}
	e.dirtyCells = e.dirtyCells[:0]
	e.dirtyNets = e.dirtyNets[:0]
}

// grown returns s resized to n elements, reusing capacity, contents zeroed.
func grown[T int32 | float64 | bool](s []T, n int) []T {
	if cap(s) < n {
		// Headroom so the repeated small growth of repeater insertion
		// (a few cells per pass) doesn't reallocate every rebuild.
		return make([]T, n, n+n/4+8)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// grownDirty is grown without the zeroing, for arrays the caller fully
// overwrites before reading (rebuild's sentinel fills would make the clear a
// second redundant memclr pass over each array).
func grownDirty[T int32 | float64 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4+8)
	}
	return s[:n]
}

// totalLoad returns the wire cap and summed sink pin cap of n, reading cell
// sink caps from the flat pin-cap mirror instead of chasing the master
// pointer.
func (e *Engine) totalLoad(n *netlist.Net) (wirefF, pinfF float64) {
	wirefF = n.WireCapfF
	for _, s := range n.Sinks {
		if s.Kind == netlist.KindCell {
			pinfF += e.pinCap[s.Idx]
		} else {
			pinfF += e.b.PinCap(s)
		}
	}
	return wirefF, pinfF
}

// wireDelay returns the Elmore delay in ps from net n's driver to sink s:
// Rdrive couples through the cell delay, so this is the pure interconnect
// term Rwire*(Cwire/2 + Cpin(s)), with cell pin caps read from the flat
// mirror.
func (e *Engine) wireDelay(n *netlist.Net, s netlist.PinRef) float64 {
	var pc float64
	if s.Kind == netlist.KindCell {
		pc = e.pinCap[s.Idx]
	} else {
		pc = e.b.PinCap(s)
	}
	return n.WireResOhm * (n.WireCapfF/2 + pc) * 1e-3
}

// computeCellDelay is the input-to-output delay of cell i driving its net:
// intrinsic plus drive resistance times load (Ω*fF = 1e-3 ps), plus
// clock-to-q for sequentials.
func (e *Engine) computeCellDelay(i int32) float64 {
	b := e.b
	m := b.Cells[i].Master
	var load float64
	if dn := e.driverNet[i]; dn >= 0 {
		wire, pins := e.totalLoad(&b.Nets[dn])
		load = wire + pins
	}
	d := m.Intr + m.DriveR*load*1e-3
	if m.Fam == tech.DFF {
		d += m.ClkQ
	}
	return d
}

// arrAtCellSink is arrAtSink specialized to a cell sink whose pin cap the
// caller already holds: the forward sweeps visit one cell's whole fanin list
// at a time, and the sink-side Master.InCapfF chase is loop-invariant there.
// Same arithmetic as arrAtSink, term for term.
func (e *Engine) arrAtCellSink(ni int32, pinCap float64) float64 {
	b := e.b
	n := &b.Nets[ni]
	var src float64
	switch n.Driver.Kind {
	case netlist.KindCell:
		src = e.arr[n.Driver.Idx]
		if isUnset(src) {
			return unset
		}
	case netlist.KindMacro:
		src = b.Macros[n.Driver.Idx].Model.AccessPS
	case netlist.KindPort:
		p := &b.Ports[n.Driver.Idx]
		src = p.Budget
		if src == 0 {
			src = DefaultPortBudgetFraction * e.period
		}
		// Port driver delay into the net.
		wire, pins := e.totalLoad(n)
		src += b.DriverR(n.Driver) * (wire + pins) * 1e-3
	}
	return src + n.WireResOhm*(n.WireCapfF/2+pinCap)*1e-3
}

// arrAtSink computes the arrival at a sink pin of net ni.
func (e *Engine) arrAtSink(ni int32, s netlist.PinRef) float64 {
	b := e.b
	n := &b.Nets[ni]
	var src float64
	switch n.Driver.Kind {
	case netlist.KindCell:
		src = e.arr[n.Driver.Idx]
		if isUnset(src) {
			return unset
		}
	case netlist.KindMacro:
		src = b.Macros[n.Driver.Idx].Model.AccessPS
	case netlist.KindPort:
		p := &b.Ports[n.Driver.Idx]
		src = p.Budget
		if src == 0 {
			src = DefaultPortBudgetFraction * e.period
		}
		// Port driver delay into the net.
		wire, pins := e.totalLoad(n)
		src += b.DriverR(n.Driver) * (wire + pins) * 1e-3
	}
	return src + e.wireDelay(n, s)
}

// requiredAtSink returns the required arrival time at a sink pin.
func (e *Engine) requiredAtSink(s netlist.PinRef) float64 {
	b := e.b
	switch s.Kind {
	case netlist.KindCell:
		if e.isSeq[s.Idx] {
			return e.period - b.Cells[s.Idx].Master.Setup - e.uncertainty
		}
		return e.req[s.Idx] - e.cellDelay[s.Idx]
	case netlist.KindMacro:
		return e.period - b.Macros[s.Idx].Model.SetupPS - e.uncertainty
	case netlist.KindPort:
		p := &b.Ports[s.Idx]
		budget := p.Budget
		if budget == 0 {
			budget = DefaultPortBudgetFraction * e.period
		}
		return e.period - budget - e.uncertainty
	}
	return noReq
}

// endpointSlack is one capture point's slack, or the unset sentinel when
// the arrival never materialized (the full pass skips such endpoints).
func (e *Engine) endpointSlack(ni int32, s netlist.PinRef) float64 {
	a := e.arrAtSink(ni, s)
	if isUnset(a) {
		return unset
	}
	return e.requiredAtSink(s) - a
}

// rebuild runs the full analysis: adjacency, levelization, stage delays,
// forward arrivals, backward requireds and endpoint discovery — the same
// sequence, in the same order, as the historical one-shot Analyze.
func (e *Engine) rebuild() error {
	b := e.b
	e.period = b.Clock.PeriodPS()
	nc, nn := len(b.Cells), len(b.Nets)
	e.nc, e.nn = nc, nn

	e.driverNet = grownDirty(e.driverNet, nc) // filled with -1 below
	e.pos = grownDirty(e.pos, nc)             // filled with -1 below
	e.isSeq = grownDirty(e.isSeq, nc)         // filled below
	e.pinCap = grownDirty(e.pinCap, nc)       // filled below
	e.cellDelay = grownDirty(e.cellDelay, nc) // every cell written below
	e.arr = grownDirty(e.arr, nc)             // filled with unset below
	e.req = grownDirty(e.req, nc)             // filled with noReq below
	e.netReq = grownDirty(e.netReq, nn)       // filled with noReq below
	e.cellDirty = grown(e.cellDirty, nc)
	e.netDirty = grown(e.netDirty, nn)
	e.queued = grown(e.queued, nc)
	e.delayMark = grown(e.delayMark, nc)
	e.boundMark = grown(e.boundMark, nn)
	e.endMark = grown(e.endMark, nn)
	e.indeg = grown(e.indeg, nc)
	e.netEnd = grownDirty(e.netEnd, nn+1) // every net written in the endpoint pass

	// Flat master mirrors: the hot sweeps test "is this sink a
	// launch/capture boundary" and read the sink's input pin cap once per
	// pin visit, and the two-pointer chase through Cells[i].Master costs
	// more than either use.
	for i := range b.Cells {
		m := b.Cells[i].Master
		e.isSeq[i] = m.Fam.IsSequential()
		e.pinCap[i] = m.InCapfF
	}

	// Driver map and fanin lists (arena-backed: one count pass sizes the
	// per-cell slices, one fill pass appends in net order).
	for i := range e.driverNet {
		e.driverNet[i] = -1
	}
	for ni := range b.Nets {
		n := &b.Nets[ni]
		if n.Kind != netlist.Signal {
			continue
		}
		if n.Driver.Kind == netlist.KindCell {
			e.driverNet[n.Driver.Idx] = int32(ni)
		}
		for _, s := range n.Sinks {
			if s.Kind == netlist.KindCell {
				e.indeg[s.Idx]++
			}
		}
	}
	total := 0
	for i := 0; i < nc; i++ {
		total += int(e.indeg[i])
	}
	if cap(e.faninIx) < total {
		e.faninIx = make([]int32, total, total+total/4+8)
	} else {
		e.faninIx = e.faninIx[:total]
	}
	if cap(e.fanin) < nc {
		e.fanin = make([][]int32, nc, nc+nc/4+8)
	} else {
		e.fanin = e.fanin[:nc]
	}
	at := 0
	for i := 0; i < nc; i++ {
		e.fanin[i] = e.faninIx[at : at : at+int(e.indeg[i])]
		at += int(e.indeg[i])
	}
	for ni := range b.Nets {
		n := &b.Nets[ni]
		if n.Kind != netlist.Signal {
			continue
		}
		for _, s := range n.Sinks {
			if s.Kind == netlist.KindCell {
				e.fanin[s.Idx] = append(e.fanin[s.Idx], int32(ni))
			}
		}
	}

	// Stage delays.
	for i := int32(0); i < int32(nc); i++ {
		e.cellDelay[i] = e.computeCellDelay(i)
	}

	// Topological order over combinational cells (Kahn). Sequential cells
	// and macros are both launch and capture boundaries, so edges do not
	// propagate through them. The FIFO queue is the order slice itself.
	for i := range e.indeg {
		e.indeg[i] = 0
	}
	for i := range b.Cells {
		if e.isSeq[i] {
			continue // DFFs launch; their inputs are endpoints
		}
		for _, ni := range e.fanin[i] {
			n := &b.Nets[ni]
			if n.Driver.Kind == netlist.KindCell && !e.isSeq[n.Driver.Idx] {
				e.indeg[i]++
			}
		}
	}
	if cap(e.order) < nc {
		e.order = make([]int32, 0, nc+nc/4+8)
	} else {
		e.order = e.order[:0]
	}
	for i := 0; i < nc; i++ {
		if !e.isSeq[i] && e.indeg[i] == 0 {
			e.order = append(e.order, int32(i))
		}
	}
	for head := 0; head < len(e.order); head++ {
		v := e.order[head]
		if dn := e.driverNet[v]; dn >= 0 {
			for _, s := range b.Nets[dn].Sinks {
				if s.Kind != netlist.KindCell {
					continue
				}
				u := s.Idx
				if e.isSeq[u] {
					continue
				}
				e.indeg[u]--
				if e.indeg[u] == 0 {
					e.order = append(e.order, u)
				}
			}
		}
	}
	comb := 0
	for i := range b.Cells {
		if !e.isSeq[i] {
			comb++
		}
	}
	if len(e.order) != comb {
		return fmt.Errorf("sta: block %s has a combinational cycle (%d of %d cells ordered)", b.Name, len(e.order), comb)
	}
	for i := range e.pos {
		e.pos[i] = -1
	}
	for k, v := range e.order {
		e.pos[v] = int32(k)
	}

	// Forward: arrival at every cell output. Launch at sequential cells.
	for i := range e.arr {
		e.arr[i] = unset
	}
	for i := range b.Cells {
		if e.isSeq[i] {
			e.arr[i] = e.cellDelay[i] // clock arrival 0 + clk->q (+ load delay)
		}
	}
	for _, v := range e.order {
		latest := 0.0
		pc := e.pinCap[v]
		for _, ni := range e.fanin[v] {
			a := e.arrAtCellSink(ni, pc)
			if isUnset(a) {
				continue
			}
			if a > latest {
				latest = a
			}
		}
		e.arr[v] = latest + e.cellDelay[v]
	}

	// Backward pass in reverse topological order, then sequential drivers.
	for i := range e.req {
		e.req[i] = noReq
	}
	for i := range e.netReq {
		e.netReq[i] = noReq
	}
	for i := len(e.order) - 1; i >= 0; i-- {
		v := e.order[i]
		dn := e.driverNet[v]
		if dn < 0 {
			e.req[v] = b.Clock.PeriodPS() // dangling output: unconstrained
			continue
		}
		r := noReq
		n := &b.Nets[dn]
		for _, s := range n.Sinks {
			rs := e.requiredAtSink(s) - e.wireDelay(n, s)
			if rs < r {
				r = rs
			}
		}
		e.req[v] = r
		if r < e.netReq[dn] {
			e.netReq[dn] = r
		}
	}
	// Sequential and macro/port-driven nets' required times.
	for ni := range b.Nets {
		if e.isBoundaryNet(int32(ni)) {
			e.recomputeBoundary(int32(ni))
		}
	}

	// Endpoint discovery: every sequential/macro/port sink is an endpoint,
	// collected in net order then sink order — the accounting order of the
	// full pass, preserved so the TNS summation order never changes.
	e.endNet = e.endNet[:0]
	e.endSink = e.endSink[:0]
	e.endSlack = e.endSlack[:0]
	for ni := range b.Nets {
		e.netEnd[ni] = int32(len(e.endNet))
		n := &b.Nets[ni]
		if n.Kind != netlist.Signal {
			continue
		}
		for si, s := range n.Sinks {
			isEnd := false
			switch s.Kind {
			case netlist.KindCell:
				isEnd = e.isSeq[s.Idx]
			case netlist.KindMacro, netlist.KindPort:
				isEnd = true
			}
			if !isEnd {
				continue
			}
			e.endNet = append(e.endNet, int32(ni))
			e.endSink = append(e.endSink, int32(si))
			e.endSlack = append(e.endSlack, e.endpointSlack(int32(ni), s))
		}
	}
	e.netEnd[nn] = int32(len(e.endNet))
	return nil
}

// isBoundaryNet reports whether ni's required time is derived outside the
// combinational backward pass: a signal net driven by a sequential cell, a
// macro or a port.
func (e *Engine) isBoundaryNet(ni int32) bool {
	n := &e.b.Nets[ni]
	if n.Kind != netlist.Signal {
		return false
	}
	if n.Driver.Kind == netlist.KindCell && !e.isSeq[n.Driver.Idx] {
		return false
	}
	return true
}

// recomputeBoundary rebuilds the required time of one boundary net and of
// its sequential driver, mirroring the full pass exactly: netReq takes the
// sink minimum unconditionally, the driver's required starts from the
// noReq sentinel and takes the minimum.
func (e *Engine) recomputeBoundary(ni int32) {
	b := e.b
	n := &b.Nets[ni]
	r := 1e18
	for _, s := range n.Sinks {
		rs := e.requiredAtSink(s) - e.wireDelay(n, s)
		if rs < r {
			r = rs
		}
	}
	e.netReq[ni] = r
	if n.Driver.Kind == netlist.KindCell {
		nr := noReq
		if r < nr {
			nr = r
		}
		e.req[n.Driver.Idx] = nr
	}
}

// recomputeReq re-derives the required time of combinational cell v from
// its driven net, updating that net's required along the way — the exact
// per-node body of the full backward pass.
func (e *Engine) recomputeReq(v int32) float64 {
	b := e.b
	dn := e.driverNet[v]
	if dn < 0 {
		return e.period // dangling output: unconstrained
	}
	r := noReq
	n := &b.Nets[dn]
	for _, s := range n.Sinks {
		rs := e.requiredAtSink(s) - e.wireDelay(n, s)
		if rs < r {
			r = rs
		}
	}
	// Mirror the full pass: netReq starts at noReq and takes r when lower;
	// a comb-driven net has exactly one driver, so this write is total.
	nr := noReq
	if r < nr {
		nr = r
	}
	e.netReq[dn] = nr
	return r
}

// update re-propagates the cones around the dirty cells and nets. Arrivals
// flow forward in increasing topological position, required times backward
// in decreasing position, each as a marked sweep over the cached order;
// both cut the cone the moment a recomputed value is exactly unchanged —
// sound because equal inputs reproduce bit-equal outputs under the shared
// per-node arithmetic.
func (e *Engine) update() {
	b := e.b

	// Stage-delay recompute set: every dirty cell, the cell drivers of
	// every dirty net (their load changed), and the cell drivers of the
	// dirty cells' fanin nets (a dirty cell's input cap is part of those
	// nets' pin loads).
	e.delayList = e.delayList[:0]
	addDelay := func(ci int32) {
		if !e.delayMark[ci] {
			e.delayMark[ci] = true
			e.delayList = append(e.delayList, ci)
		}
	}
	for _, ci := range e.dirtyCells {
		addDelay(ci)
		for _, ni := range e.fanin[ci] {
			if d := b.Nets[ni].Driver; d.Kind == netlist.KindCell {
				addDelay(d.Idx)
			}
		}
	}
	for _, ni := range e.dirtyNets {
		if d := b.Nets[ni].Driver; d.Kind == netlist.KindCell {
			addDelay(d.Idx)
		}
	}
	for _, ci := range e.delayList {
		e.cellDelay[ci] = e.computeCellDelay(ci)
	}

	// Endpoint re-slack set: dirty nets (wire delay or port-driver load
	// changed) and the dirty cells' fanin nets (a master swap can move the
	// sink-side constants); nets whose driver arrival changes join below.
	e.endList = e.endList[:0]
	addEnd := func(ni int32) {
		if !e.endMark[ni] {
			e.endMark[ni] = true
			e.endList = append(e.endList, ni)
		}
	}
	for _, ni := range e.dirtyNets {
		addEnd(ni)
	}
	for _, ci := range e.dirtyCells {
		for _, ni := range e.fanin[ci] {
			addEnd(ni)
		}
	}

	// Forward sweep: delay-dirty cells re-derive their own arrival, and
	// every combinational sink of a dirty net re-reads its changed wire
	// delay. Sequential cells have no fanin dependencies and go first;
	// combinational cells are flagged and visited in increasing topological
	// position — re-reading hi each iteration picks up cells flagged
	// mid-sweep (always downstream) — so each visit sees final fanin
	// arrivals, exactly like the full forward pass.
	lo, hi := len(e.order), -1
	e.seqSeeds = e.seqSeeds[:0]
	queueArr := func(ci int32) {
		if e.queued[ci] {
			return
		}
		e.queued[ci] = true
		if p := int(e.pos[ci]); p >= 0 {
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		} else {
			e.seqSeeds = append(e.seqSeeds, ci)
		}
	}
	for _, ci := range e.delayList {
		e.delayMark[ci] = false
		queueArr(ci)
	}
	for _, ni := range e.dirtyNets {
		for _, s := range b.Nets[ni].Sinks {
			if s.Kind == netlist.KindCell && !e.isSeq[s.Idx] {
				queueArr(s.Idx)
			}
		}
	}
	// arrChanged fans a changed arrival out: the driven net's endpoints
	// re-slack and its combinational sinks recompute.
	arrChanged := func(v int32) {
		if dn := e.driverNet[v]; dn >= 0 {
			addEnd(dn)
			for _, s := range b.Nets[dn].Sinks {
				if s.Kind == netlist.KindCell && !e.isSeq[s.Idx] {
					queueArr(s.Idx)
				}
			}
		}
	}
	for _, v := range e.seqSeeds {
		e.queued[v] = false
		a := e.cellDelay[v]
		//lint:ignore floatcmp an exactly-unchanged arrival cuts the fanout cone: equal inputs reproduce bit-equal downstream values
		if a == e.arr[v] {
			continue
		}
		e.arr[v] = a
		arrChanged(v)
	}
	for p := lo; p <= hi; p++ {
		v := e.order[p]
		if !e.queued[v] {
			continue
		}
		e.queued[v] = false
		latest := 0.0
		pc := e.pinCap[v]
		for _, ni := range e.fanin[v] {
			av := e.arrAtCellSink(ni, pc)
			if isUnset(av) {
				continue
			}
			if av > latest {
				latest = av
			}
		}
		a := latest + e.cellDelay[v]
		//lint:ignore floatcmp an exactly-unchanged arrival cuts the fanout cone: equal inputs reproduce bit-equal downstream values
		if a == e.arr[v] {
			continue
		}
		e.arr[v] = a
		arrChanged(v)
	}

	// Backward sweep: the drivers of dirty nets and of the delay-dirty
	// cells' fanin nets re-derive their required times, visited in
	// decreasing topological position (re-reading lo picks up cells flagged
	// mid-sweep, always upstream); non-combinational drivers route their
	// nets to the boundary recompute instead.
	e.boundList = e.boundList[:0]
	addBound := func(ni int32) {
		if !e.boundMark[ni] {
			e.boundMark[ni] = true
			e.boundList = append(e.boundList, ni)
		}
	}
	lo, hi = len(e.order), -1
	seedReq := func(ni int32) {
		d := b.Nets[ni].Driver
		if d.Kind == netlist.KindCell && !e.isSeq[d.Idx] {
			if !e.queued[d.Idx] {
				e.queued[d.Idx] = true
				p := int(e.pos[d.Idx])
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
		} else if e.isBoundaryNet(ni) {
			addBound(ni)
		}
	}
	for _, ni := range e.dirtyNets {
		seedReq(ni)
	}
	for _, ci := range e.delayList {
		for _, ni := range e.fanin[ci] {
			seedReq(ni)
		}
	}
	e.delayList = e.delayList[:0]
	for p := hi; p >= lo; p-- {
		v := e.order[p]
		if !e.queued[v] {
			continue
		}
		e.queued[v] = false
		r := e.recomputeReq(v)
		//lint:ignore floatcmp an exactly-unchanged required time cuts the fanin cone, mirroring the forward cutoff
		if r == e.req[v] {
			continue
		}
		e.req[v] = r
		for _, ni := range e.fanin[v] {
			seedReq(ni)
		}
	}
	for _, ni := range e.boundList {
		e.boundMark[ni] = false
		e.recomputeBoundary(ni)
	}
	e.boundList = e.boundList[:0]

	// Re-slack the collected endpoints with the final arrivals.
	for _, ni := range e.endList {
		e.endMark[ni] = false
		n := &b.Nets[ni]
		for k := e.netEnd[ni]; k < e.netEnd[ni+1]; k++ {
			e.endSlack[k] = e.endpointSlack(ni, n.Sinks[e.endSink[k]])
		}
	}
	e.endList = e.endList[:0]
}

// finish folds the maintained arrays into the report: endpoint accounting
// over the stored slacks in their discovery order (so WNS comparisons and
// the TNS float summation replay the full pass exactly), then the per-cell
// and per-net slack views.
func (e *Engine) finish() {
	b := e.b
	rep := &e.rep
	rep.CellSlack = grown(rep.CellSlack, e.nc)
	rep.NetSlack = grown(rep.NetSlack, e.nn)
	rep.ArrOut = e.arr
	rep.Endpoints = 0
	rep.Failing = 0
	rep.TNS = 0
	rep.WNS = 1e18
	for _, s := range e.endSlack {
		if isUnset(s) {
			continue // the arrival never materialized; the full pass skips it
		}
		rep.Endpoints++
		if s < 0 {
			rep.Failing++
			rep.TNS += s
		}
		if s < rep.WNS {
			rep.WNS = s
		}
	}
	if rep.Endpoints == 0 {
		rep.WNS = e.period
	}
	for i := 0; i < e.nc; i++ {
		rep.CellSlack[i] = e.req[i] - e.arr[i]
		if isUnset(e.arr[i]) {
			rep.CellSlack[i] = e.period
		}
	}
	for ni := 0; ni < e.nn; ni++ {
		n := &b.Nets[ni]
		if n.Kind != netlist.Signal {
			rep.NetSlack[ni] = e.period
			continue
		}
		var a float64
		switch n.Driver.Kind {
		case netlist.KindCell:
			a = e.arr[n.Driver.Idx]
			if isUnset(a) {
				a = 0
			}
		case netlist.KindMacro:
			a = b.Macros[n.Driver.Idx].Model.AccessPS
		case netlist.KindPort:
			a = DefaultPortBudgetFraction * e.period
		}
		rep.NetSlack[ni] = e.netReq[ni] - a
		if noRequired(e.netReq[ni]) {
			rep.NetSlack[ni] = e.period
		}
	}
}
