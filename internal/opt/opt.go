// Package opt implements the timing and power optimization passes of the
// flow (the paper's pre-CTS / post-CTS / post-route iterations in Encounter):
//
//   - repeater insertion on long and overloaded nets (the dominant source of
//     the paper's multi-million buffer counts, which track wirelength and
//     therefore shrink in 3D designs);
//   - slack-driven gate upsizing to close timing;
//   - positive-slack-driven gate downsizing for power — the key mechanism by
//     which the better timing of 3D designs converts into lower cell and pin
//     power (paper §3.2);
//   - RVT->HVT swapping under slack for dual-Vth designs (§6.2).
package opt

import (
	"fmt"
	"math"
	"sort"

	"fold3d/internal/extract"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/sta"
	"fold3d/internal/tech"
)

// Options tunes the optimizer.
type Options struct {
	// BufferDrive is the repeater drive strength.
	BufferDrive int
	// SlackMargin is the positive slack (ps) that power moves must preserve.
	SlackMargin float64
	// DownsizeMargin is the (larger) slack floor for gate downsizing: sizing
	// moves shift setup-critical structure and are guard-banded harder than
	// Vth swaps in sign-off flows.
	DownsizeMargin float64
	// MaxLoadfF triggers rule-based repeater insertion above this load.
	MaxLoadfF float64
	// MaxFanout triggers fanout-tree construction above this sink count.
	MaxFanout int
	// NeedSlackPS makes length-rule repeater insertion timing-driven: a long
	// net is only repeatered when its worst path slack is below this value
	// (tools do not spend buffers on paths with ample margin). Load and
	// fanout violations are always fixed. Zero selects the default.
	NeedSlackPS float64
	// SizePasses bounds each sizing loop.
	SizePasses int
	// AreaBudget caps the total cell area (µm²) repeater insertion may add;
	// 0 means unlimited. The flow sets it to the block's free placement
	// capacity so a fixed chip-floorplan outline can never overflow.
	AreaBudget float64
	// AreaBudgetDie, when either entry is positive, caps insertion per die
	// (folded blocks overflow per die, not in aggregate).
	AreaBudgetDie [2]float64
	// SpacingFactor multiplies the analytic optimal repeater spacing;
	// commercial flows insert more aggressively than the delay-optimal
	// spacing to also fix slew, so the default is below 1.
	SpacingFactor float64
	// FullRecompute disables incremental timing and extraction: every
	// analysis rebuilds the timing graph from scratch and every resize
	// flush re-extracts the whole block, reproducing the pre-incremental
	// flow step for step. Results are bit-identical either way — the
	// equivalence and fingerprint tests use this mode as the reference.
	FullRecompute bool
}

// DefaultOptions returns the flow defaults.
func DefaultOptions() Options {
	return Options{BufferDrive: 8, SlackMargin: 20, DownsizeMargin: 140, MaxLoadfF: 70, MaxFanout: 10, NeedSlackPS: 260, SizePasses: 8, SpacingFactor: 0.8}
}

// Optimizer holds the shared context of the passes.
type Optimizer struct {
	Lib   *tech.Library
	Ex    *extract.Extractor
	Opt   Options
	Skew  float64 // CTS uncertainty passed to STA
	nameC int

	eng       *sta.Engine  // persistent incremental timing engine
	resized   []bool       // per-pass scratch: cells whose geometry changed
	dirtyNets []int32      // per-flush scratch: nets needing re-extraction
	pins      []geom.Point // pin-position scratch for HPWL checks
}

// hpwl is geom.HPWL over the net's pins through the optimizer's scratch
// buffer, avoiding the per-net NetPins allocation in the repair loops.
func (o *Optimizer) hpwl(b *netlist.Block, n *netlist.Net) float64 {
	o.pins = b.AppendNetPins(o.pins[:0], n)
	return geom.HPWL(o.pins)
}

// New returns an optimizer bound to a library and extractor.
func New(lib *tech.Library, ex *extract.Extractor, opt Options) *Optimizer {
	o := &Optimizer{}
	o.Reinit(lib, ex, opt)
	return o
}

// Reinit re-arms the optimizer for a fresh block, resetting every piece of
// per-block state (options, skew, buffer name counter) while keeping the
// timing engine and scratch arrays for capacity reuse. A reinitialized
// optimizer behaves exactly like a newly constructed one.
func (o *Optimizer) Reinit(lib *tech.Library, ex *extract.Extractor, opt Options) {
	if opt.BufferDrive == 0 {
		fullRecompute := opt.FullRecompute
		opt = DefaultOptions()
		opt.FullRecompute = fullRecompute
	}
	o.Lib, o.Ex, o.Opt = lib, ex, opt
	o.Skew = 0
	o.nameC = 0
}

// engineFor returns the persistent timing engine bound to b, creating or
// rebinding it when the optimizer moves to a different block.
func (o *Optimizer) engineFor(b *netlist.Block) *sta.Engine {
	if o.eng == nil {
		o.eng = sta.NewEngine(b)
	} else if o.eng.Block() != b {
		o.eng.Rebind(b)
	}
	return o.eng
}

// analyzeAt runs timing at an explicit uncertainty through the persistent
// engine (a full rebuild per call in FullRecompute mode).
func (o *Optimizer) analyzeAt(b *netlist.Block, uncertaintyPS float64) (*sta.Report, error) {
	eng := o.engineFor(b)
	if o.Opt.FullRecompute {
		eng.InvalidateTopology()
	}
	return eng.Analyze(uncertaintyPS)
}

// Timing returns b's current timing at the optimizer's CTS skew through
// its persistent incremental engine, reusing cached propagation when only
// marked edits happened since the last call. The Report and its slices are
// owned by the engine and valid until the next timing call on this
// optimizer.
func (o *Optimizer) Timing(b *netlist.Block) (*sta.Report, error) {
	return o.analyzeAt(b, o.Skew)
}

// InvalidateTiming drops the engine's cached timing state. Callers must
// invoke it after editing the block outside the optimizer's passes —
// placement legalization, manual re-extraction — so the next timing call
// rebuilds instead of trusting stale arrays.
func (o *Optimizer) InvalidateTiming() {
	if o.eng != nil {
		o.eng.InvalidateTopology()
	}
}

// beginResizePass resets the per-pass resized-cell flags.
func (o *Optimizer) beginResizePass(b *netlist.Block) {
	if cap(o.resized) < len(b.Cells) {
		o.resized = make([]bool, len(b.Cells))
		return
	}
	o.resized = o.resized[:len(b.Cells)]
	for i := range o.resized {
		o.resized[i] = false
	}
}

// flushResizes re-extracts every net touching a cell flagged in o.resized
// and hands the dirty sets to the engine. One scan over the pin lists
// replaces the full-block extraction of the non-incremental flow;
// bit-identical because extraction is a pure per-net function and only the
// flagged cells' pins moved. Clock nets touching a resized sink are
// re-extracted too (their wirelength feeds CTS and power) even though the
// timing graph ignores them.
func (o *Optimizer) flushResizes(b *netlist.Block, eng *sta.Engine) error {
	nets := o.dirtyNets[:0]
	for ni := range b.Nets {
		n := &b.Nets[ni]
		touched := n.Driver.Kind == netlist.KindCell && o.resized[n.Driver.Idx]
		if !touched {
			for _, s := range n.Sinks {
				if s.Kind == netlist.KindCell && o.resized[s.Idx] {
					touched = true
					break
				}
			}
		}
		if touched {
			nets = append(nets, int32(ni))
		}
	}
	o.dirtyNets = nets
	if o.Opt.FullRecompute {
		return o.Ex.Extract(b)
	}
	if err := o.Ex.Update(b, nets); err != nil {
		return err
	}
	for _, ni := range nets {
		if b.Nets[ni].Kind == netlist.Signal {
			eng.MarkNetDirty(ni)
		}
	}
	return nil
}

// reExtract flushes the structurally-touched net list accumulated by the
// repeater passes: a full extraction in FullRecompute mode, a dirty-net
// Update otherwise. The engine needs no marks here — the cell/net counts
// changed, so its next Analyze rebuilds from scratch anyway.
func (o *Optimizer) reExtract(b *netlist.Block, touched *[]int32) error {
	if o.Opt.FullRecompute {
		*touched = (*touched)[:0]
		return o.Ex.Extract(b)
	}
	err := o.Ex.Update(b, *touched)
	*touched = (*touched)[:0]
	return err
}

// OptimalBufferSpacing returns the classic repeater spacing in drawn µm for
// the optimizer's buffer on the given layer: L = sqrt(2*Rb*Cb / (rw*cw)).
// Because the extractor's effective per-drawn-µm RC already carries the
// scale shrink, the drawn spacing is automatically the physical spacing
// divided by sqrt(scale).
func (o *Optimizer) OptimalBufferSpacing(layerIdx int) (float64, error) {
	buf, err := o.Lib.Cell(tech.BUF, o.Opt.BufferDrive, tech.RVT)
	if err != nil {
		return 0, err
	}
	layer, err := o.Lib.Layer(layerIdx)
	if err != nil {
		return 0, err
	}
	rw := o.Ex.Scale.WireRPerUm(layer)
	cw := o.Ex.Scale.WireCPerUm(layer)
	sf := o.Opt.SpacingFactor
	if sf <= 0 {
		sf = 0.8
	}
	return sf * math.Sqrt(2*buf.DriveR*buf.InCapfF/(rw*cw)), nil
}

// BufferLongNets rebuilds high-fanout nets as buffer trees and inserts
// repeater chains on nets whose length exceeds the optimal spacing or whose
// load exceeds MaxLoadfF. It rewires the netlist, places the repeaters along
// the driver-to-load axis, and re-extracts. Returns the number of repeaters
// inserted. Clock nets are CTS territory and are skipped.
func (o *Optimizer) BufferLongNets(b *netlist.Block) (int, error) {
	spacing, err := o.OptimalBufferSpacing(5)
	if err != nil {
		return 0, err
	}
	buf, err := o.Lib.Cell(tech.BUF, o.Opt.BufferDrive, tech.RVT)
	if err != nil {
		return 0, err
	}

	// A single budget account covers fanout trees (charged first — they are
	// mandatory for timing) and the length/load chains. touched accumulates
	// the nets each structural edit rewired or created, so the incremental
	// path re-extracts only those.
	// Repeater insertion grows the cell and net lists; each inserted buffer
	// adds one cell and one net. Reserve modestly — a sixteenth of the
	// block, tightened to the area budget's hard ceiling on insertions when
	// that is smaller — and let append's amortized doubling carry the rare
	// buffer-heavy block: a large zeroed up-front reservation costs more in
	// allocation and GC scan than the occasional regrow copy. Capacity is
	// not observable, so the reservation cannot change results.
	db := newDieBudget(o.Opt, buf.Area())
	grow := len(b.Cells)/16 + 16
	if m := db.maxAdds(); m >= 0 && m+16 < grow {
		grow = m + 16
	}
	b.GrowCells(grow)
	b.GrowNets(grow)
	var touched []int32
	inserted, err := o.buildFanoutTrees(b, buf, db, &touched)
	if err != nil {
		return inserted, err
	}
	if inserted > 0 {
		if err := o.reExtract(b, &touched); err != nil {
			return inserted, err
		}
	}

	// Timing-driven selection: long nets are repeatered only when their
	// path slack is thin — this is how a 3D floorplan's looser block I/O
	// budgets translate into the paper's lower buffer counts.
	needSlack := o.Opt.NeedSlackPS
	if needSlack == 0 {
		needSlack = 260
	}
	rep, err := o.analyzeAt(b, 0)
	if err != nil {
		return inserted, err
	}
	// Longest nets first: when the area budget binds, the nets that gain
	// most from repeaters get them.
	numNets := len(b.Nets)
	order := make([]int, 0, numNets)
	for ni := 0; ni < numNets; ni++ {
		if b.Nets[ni].Kind == netlist.Signal {
			order = append(order, ni)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return b.Nets[order[i]].RouteLen > b.Nets[order[j]].RouteLen
	})
	for _, ni := range order {
		n := &b.Nets[ni]
		wire, pins := extract.TotalLoad(b, n)
		needLen := n.RouteLen > 1.3*spacing && (ni >= len(rep.NetSlack) || rep.NetSlack[ni] < needSlack)
		needLoad := wire+pins > o.Opt.MaxLoadfF
		if !needLen && !needLoad {
			continue
		}
		// Multi-sink spans are repaired by spatial splitting (a buffer per
		// sink cluster, recursively); the resulting long two-pin legs and
		// plain two-pin nets get classic repeater chains.
		if len(b.Nets[ni].Sinks) > 1 && o.hpwl(b, &b.Nets[ni]) > 1.5*spacing {
			k, err := o.splitSpatially(b, int32(ni), spacing, buf, db, &touched)
			if err != nil {
				return inserted, err
			}
			inserted += k
			continue
		}
		k := int(n.RouteLen / spacing)
		if needLoad && k == 0 {
			k = 1
		}
		if k > 8 {
			k = 8 // diminishing returns; matches tool behavior
		}
		if k == 0 {
			continue
		}
		die := b.PinDie(n.Driver)
		k = db.take(die, k)
		if k == 0 {
			continue
		}
		if err := o.insertChain(b, int32(ni), k, buf, &touched); err != nil {
			return inserted, err
		}
		inserted += k
	}
	if err := o.reExtract(b, &touched); err != nil {
		return inserted, err
	}
	return inserted, nil
}

// splitSpatially repairs a spread multi-sink net: sinks are divided into
// two position clusters, each cluster gets a driving buffer at its centroid
// (so the trunk becomes two point-to-point legs), recursing while a cluster
// still spans more than the repeater spacing. Returns buffers added; every
// net it rewires or creates is appended to touched.
func (o *Optimizer) splitSpatially(b *netlist.Block, ni int32, spacing float64, buf *tech.Cell, db *dieBudget, touched *[]int32) (int, error) {
	added := 0
	// Work list of nets to consider; children are appended as created, with
	// bounded recursion depth — each level halves the sink spread, and past
	// two levels the added buffer stages cost more than the wire they save.
	type witem struct {
		ni    int32
		depth int
	}
	work := []witem{{ni, 0}}
	for len(work) > 0 {
		cur := work[0].ni
		depth := work[0].depth
		work = work[1:]
		n := &b.Nets[cur]
		if depth > 2 || len(n.Sinks) < 2 || o.hpwl(b, n) <= 1.5*spacing {
			continue
		}
		drvDie := b.PinDie(n.Driver)
		if db.take(drvDie, 2) < 2 {
			break
		}
		// Split sinks along the longer axis of their bounding box.
		pts := make([]geom.Point, len(n.Sinks))
		for i, sref := range n.Sinks {
			pts[i] = b.PinPos(sref)
		}
		bb := geom.BoundingBox(pts)
		byX := bb.W() >= bb.H()
		idx := make([]int, len(n.Sinks))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, c int) bool {
			if byX {
				return pts[idx[a]].X < pts[idx[c]].X
			}
			return pts[idx[a]].Y < pts[idx[c]].Y
		})
		mid := len(idx) / 2
		act := n.Activity
		var newSinks []netlist.PinRef
		for _, half := range [][]int{idx[:mid], idx[mid:]} {
			if len(half) == 0 {
				continue
			}
			var ctr geom.Point
			refs := make([]netlist.PinRef, len(half))
			for i, k := range half {
				refs[i] = b.Nets[cur].Sinks[k]
				ctr = ctr.Add(pts[k])
			}
			ctr = ctr.Scale(1 / float64(len(half)))
			o.nameC++
			ci := b.AddCell(netlist.Instance{
				Name:     fmt.Sprintf("sbuf%d", o.nameC),
				Master:   buf,
				Pos:      geom.Point{X: ctr.X - buf.Width/2, Y: ctr.Y - tech.CellHeight/2},
				Die:      drvDie,
				Activity: act,
			})
			bufRef := netlist.PinRef{Kind: netlist.KindCell, Idx: ci}
			child := b.AddNet(netlist.Net{
				Name:     fmt.Sprintf("%s_s%d", b.Nets[cur].Name, o.nameC),
				Kind:     netlist.Signal,
				Driver:   bufRef,
				Sinks:    refs,
				Activity: act,
			})
			newSinks = append(newSinks, bufRef)
			*touched = append(*touched, child)
			work = append(work, witem{child, depth + 1})
			added++
		}
		if len(newSinks) > 0 {
			b.Nets[cur].Sinks = newSinks
			*touched = append(*touched, cur)
		}
		// Long legs from the driver to the cluster buffers get chains.
		if k := int(o.hpwl(b, &b.Nets[cur]) / spacing); k > 0 {
			k = db.take(b.PinDie(b.Nets[cur].Driver), minInt(k, 8))
			if k > 0 {
				if err := o.insertChain(b, cur, k, buf, touched); err != nil {
					return added, err
				}
				added += k
			}
		}
	}
	return added, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// dieBudget tracks the remaining repeater-insertion area per die.
type dieBudget struct {
	remaining [2]float64
	perDie    bool
	cellArea  float64
}

func newDieBudget(opt Options, cellArea float64) *dieBudget {
	db := &dieBudget{cellArea: cellArea}
	if opt.AreaBudgetDie[0] > 0 || opt.AreaBudgetDie[1] > 0 {
		db.perDie = true
		db.remaining = opt.AreaBudgetDie
	} else if opt.AreaBudget > 0 {
		db.remaining[0] = opt.AreaBudget
	} else {
		db.remaining[0] = 1e18
	}
	return db
}

// maxAdds returns the hard ceiling on repeaters the budget can still
// admit across both dies, or -1 when the budget is unbounded.
func (db *dieBudget) maxAdds() int {
	tot := db.remaining[0] + db.remaining[1]
	if tot >= 1e17 {
		return -1
	}
	return int(tot / db.cellArea)
}

// take reserves up to k repeater slots on die d, returning how many fit.
func (db *dieBudget) take(d netlist.Die, k int) int {
	idx := 0
	if db.perDie {
		idx = int(d)
	}
	fit := int(db.remaining[idx] / db.cellArea)
	if k > fit {
		k = fit
	}
	if k > 0 {
		db.remaining[idx] -= float64(k) * db.cellArea
	}
	return k
}

// buildFanoutTrees splits every signal net with more than MaxFanout sinks
// into a buffered tree: sinks are clustered geometrically, each cluster gets
// a driving buffer at its centroid, and the original driver drives the
// cluster buffers (recursively, if there are many clusters). Insertion stops
// when the die budget runs out; any sinks not yet clustered stay on the
// original net. Returns the number of buffers added; every net it rewires
// or creates is appended to touched.
func (o *Optimizer) buildFanoutTrees(b *netlist.Block, buf *tech.Cell, db *dieBudget, touched *[]int32) (int, error) {
	maxFo := o.Opt.MaxFanout
	if maxFo <= 1 {
		maxFo = 10
	}
	added := 0
	numNets := len(b.Nets)
	for ni := 0; ni < numNets; ni++ {
		if b.Nets[ni].Kind != netlist.Signal || len(b.Nets[ni].Sinks) <= maxFo {
			continue
		}
		// The original net keeps its driver and 3D via bookkeeping; only
		// its sink list is rebuilt around the tree.
		for len(b.Nets[ni].Sinks) > maxFo {
			n := &b.Nets[ni]
			drvDie := b.PinDie(n.Driver)
			act := n.Activity
			// Cluster sinks by position into groups of maxFo.
			type sk struct {
				ref netlist.PinRef
				pos geom.Point
			}
			sinks := make([]sk, len(n.Sinks))
			for i, s := range n.Sinks {
				sinks[i] = sk{s, b.PinPos(s)}
			}
			sort.Slice(sinks, func(i, j int) bool {
				if sinks[i].pos.X < sinks[j].pos.X {
					return true
				}
				if sinks[i].pos.X > sinks[j].pos.X {
					return false
				}
				return sinks[i].pos.Y < sinks[j].pos.Y
			})
			var newSinks []netlist.PinRef
			exhausted := false
			for at := 0; at < len(sinks); at += maxFo {
				end := at + maxFo
				if end > len(sinks) {
					end = len(sinks)
				}
				cluster := sinks[at:end]
				if exhausted || db.take(drvDie, 1) == 0 {
					// Out of area: leave the rest directly on the net.
					exhausted = true
					for _, s := range cluster {
						newSinks = append(newSinks, s.ref)
					}
					continue
				}
				var ctr geom.Point
				for _, s := range cluster {
					ctr = ctr.Add(s.pos)
				}
				ctr = ctr.Scale(1 / float64(len(cluster)))
				o.nameC++
				ci := b.AddCell(netlist.Instance{
					Name:     fmt.Sprintf("fbuf%d", o.nameC),
					Master:   buf,
					Pos:      geom.Point{X: ctr.X - buf.Width/2, Y: ctr.Y - tech.CellHeight/2},
					Die:      drvDie,
					Activity: act,
				})
				bufRef := netlist.PinRef{Kind: netlist.KindCell, Idx: ci}
				refs := make([]netlist.PinRef, len(cluster))
				for i, s := range cluster {
					refs[i] = s.ref
				}
				child := b.AddNet(netlist.Net{
					Name:     fmt.Sprintf("%s_f%d", b.Nets[ni].Name, o.nameC),
					Kind:     netlist.Signal,
					Driver:   bufRef,
					Sinks:    refs,
					Activity: act,
				})
				*touched = append(*touched, child)
				newSinks = append(newSinks, bufRef)
				added++
			}
			b.Nets[ni].Sinks = newSinks
			*touched = append(*touched, int32(ni))
			if exhausted {
				break
			}
		}
	}
	return added, nil
}

// insertChain splits net ni with k repeaters. The original net keeps the
// driver and gets the first repeater as its only sink; the last new net
// takes over the original sinks (and the original 3D via points, so the
// crossing stays accounted). Every net it rewires or creates is appended
// to touched.
func (o *Optimizer) insertChain(b *netlist.Block, ni int32, k int, buf *tech.Cell, touched *[]int32) error {
	n := &b.Nets[ni]
	from := b.PinPos(n.Driver)
	to := sinksCentroid(b, n)
	origSinks := n.Sinks
	origVias := n.Vias
	origCross := n.Crossings
	driverDie := b.PinDie(n.Driver)
	act := n.Activity

	prevDriver := n.Driver
	// Rebuild: original net now ends at the first buffer.
	for i := 0; i < k; i++ {
		t := float64(i+1) / float64(k+1)
		pos := geom.Point{X: from.X + t*(to.X-from.X), Y: from.Y + t*(to.Y-from.Y)}
		o.nameC++
		ci := b.AddCell(netlist.Instance{
			Name:     fmt.Sprintf("rbuf%d", o.nameC),
			Master:   buf,
			Pos:      geom.Point{X: pos.X - buf.Width/2, Y: pos.Y - tech.CellHeight/2},
			Die:      driverDie, // repeaters stay on the driver die; the via crossing stays on the final segment
			Activity: act,
		})
		bufRef := netlist.PinRef{Kind: netlist.KindCell, Idx: ci}
		if i == 0 {
			n = &b.Nets[ni] // re-take pointer: AddCell cannot move nets, but stay safe
			n.Sinks = []netlist.PinRef{bufRef}
			n.Vias = nil
			n.Crossings = 0
			*touched = append(*touched, ni)
		} else {
			link := b.AddNet(netlist.Net{
				Name:     fmt.Sprintf("%s_r%d", b.Nets[ni].Name, i),
				Kind:     netlist.Signal,
				Driver:   prevDriver,
				Sinks:    []netlist.PinRef{bufRef},
				Activity: act,
			})
			*touched = append(*touched, link)
		}
		prevDriver = bufRef
	}
	last := b.AddNet(netlist.Net{
		Name:      fmt.Sprintf("%s_rl", b.Nets[ni].Name),
		Kind:      netlist.Signal,
		Driver:    prevDriver,
		Sinks:     origSinks,
		Activity:  act,
		Vias:      origVias,
		Crossings: origCross,
	})
	*touched = append(*touched, last)
	return nil
}

func sinksCentroid(b *netlist.Block, n *netlist.Net) geom.Point {
	var c geom.Point
	for _, s := range n.Sinks {
		p := b.PinPos(s)
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(n.Sinks)))
}

// FixTiming upsizes cells on failing paths until timing is met or no move
// helps. Returns the final timing report (engine-owned; see Timing).
func (o *Optimizer) FixTiming(b *netlist.Block) (*sta.Report, error) {
	eng := o.engineFor(b)
	var rep *sta.Report
	var err error
	for pass := 0; pass < o.Opt.SizePasses; pass++ {
		rep, err = o.Timing(b)
		if err != nil {
			return nil, err
		}
		if rep.Met() {
			return rep, nil
		}
		driverNet := eng.DriverNets()
		o.beginResizePass(b)
		moves := 0
		for i := range b.Cells {
			c := &b.Cells[i]
			if rep.CellSlack[i] >= 0 || c.Fixed || c.IsClockBuf {
				continue
			}
			up := tech.NextDriveUp(c.Master.Drive)
			if up == 0 {
				continue
			}
			bigger, err := o.Lib.Resize(c.Master, up)
			if err != nil {
				return nil, err
			}
			// Upsizing helps only load-dominated stages; it costs input cap
			// upstream. Accept when the stage gain beats the upstream loss.
			gain := o.stageDelta(b, driverNet, int32(i), c.Master, bigger)
			loss := o.upstreamDelta(b, eng, int32(i), c.Master, bigger)
			if gain+loss < 0 { // any net improvement
				c.Master = bigger
				o.resized[i] = true
				eng.MarkCellDirty(int32(i))
				moves++
			}
		}
		if moves == 0 {
			break
		}
		if err := o.flushResizes(b, eng); err != nil {
			return nil, err
		}
	}
	return o.Timing(b)
}

// pathShare is the assumed number of cells sharing a path's slack during
// one optimization pass; each move may claim only slack/pathShare so that
// concurrent moves along one path cannot oversubscribe it (the full STA
// between passes trues the bookkeeping).
const pathShare = 4.0

// RecoverPower downsizes cells whose worst slack exceeds the margin, most
// positive slack first, with per-pass slack budgeting. Returns the number of
// cells downsized.
func (o *Optimizer) RecoverPower(b *netlist.Block) (int, error) {
	margin := o.Opt.DownsizeMargin
	if margin < o.Opt.SlackMargin {
		margin = o.Opt.SlackMargin
	}
	total := 0
	eng := o.engineFor(b)
	for pass := 0; pass < o.Opt.SizePasses; pass++ {
		rep, err := o.Timing(b)
		if err != nil {
			return total, err
		}
		driverNet := eng.DriverNets()
		o.beginResizePass(b)
		slack := append([]float64(nil), rep.CellSlack...)
		moves := 0
		for i := range b.Cells {
			c := &b.Cells[i]
			if c.Fixed || c.IsClockBuf {
				continue
			}
			down := tech.NextDriveDown(c.Master.Drive)
			if down == 0 {
				continue
			}
			smaller, err := o.Lib.Resize(c.Master, down)
			if err != nil {
				return total, err
			}
			dSelf := o.stageDelta(b, driverNet, int32(i), c.Master, smaller)
			dUp := o.upstreamDelta(b, eng, int32(i), c.Master, smaller)
			cost := dSelf + dUp // dUp is negative: smaller input cap helps upstream
			// Slack budgeting: the cell's worst slack is shared with the
			// other cells on its path, each of which may also claim a move
			// this pass; only a share of the headroom may be consumed here.
			// Full STA between passes trues the books.
			budget := (slack[i] - margin) / pathShare
			if cost <= 0 || cost <= budget {
				c.Master = smaller
				slack[i] -= cost * pathShare
				o.resized[i] = true
				eng.MarkCellDirty(int32(i))
				moves++
			}
		}
		total += moves
		if moves == 0 {
			break
		}
		if err := o.flushResizes(b, eng); err != nil {
			return total, err
		}
	}
	return total, nil
}

// SwapToHVT converts RVT cells to HVT where the slack affords the ~30%
// stage-delay penalty. Clock buffers stay RVT. Returns the swap count.
func (o *Optimizer) SwapToHVT(b *netlist.Block) (int, error) {
	total := 0
	eng := o.engineFor(b)
	for pass := 0; pass < o.Opt.SizePasses; pass++ {
		rep, err := o.Timing(b)
		if err != nil {
			return total, err
		}
		driverNet := eng.DriverNets()
		slack := append([]float64(nil), rep.CellSlack...)
		moves := 0
		for i := range b.Cells {
			c := &b.Cells[i]
			if c.Fixed || c.IsClockBuf || c.Master.Vth == tech.HVT {
				continue
			}
			hvt, err := o.Lib.SwapVth(c.Master, tech.HVT)
			if err != nil {
				return total, err
			}
			cost := o.stageDelta(b, driverNet, int32(i), c.Master, hvt)
			budget := (slack[i] - o.Opt.SlackMargin) / pathShare
			if cost <= budget {
				c.Master = hvt
				slack[i] -= cost * pathShare
				eng.MarkCellDirty(int32(i))
				moves++
			}
		}
		total += moves
		if moves == 0 {
			break
		}
		// Vth swaps do not change geometry or caps; no re-extract needed —
		// the engine re-propagates from the marked cells alone.
	}
	return total, nil
}

// stageDelta estimates the stage-delay change (ps) of swapping cell ci's
// master from oldM to newM, at constant load. driverNet maps cells to their
// driven net (-1 if none).
func (o *Optimizer) stageDelta(b *netlist.Block, driverNet []int32, ci int32, oldM, newM *tech.Cell) float64 {
	var load float64
	if ni := driverNet[ci]; ni >= 0 {
		wire, pins := extract.TotalLoad(b, &b.Nets[ni])
		load = wire + pins
	}
	d := (newM.Intr - oldM.Intr) + (newM.DriveR-oldM.DriveR)*load*1e-3
	if oldM.Fam == tech.DFF {
		d += newM.ClkQ - oldM.ClkQ
	}
	return d
}

// upstreamDelta estimates the delay change (ps) induced on the worst
// upstream stage by the input-cap change of resizing cell ci, reading the
// fanin adjacency the engine already maintains.
func (o *Optimizer) upstreamDelta(b *netlist.Block, eng *sta.Engine, ci int32, oldM, newM *tech.Cell) float64 {
	dCap := float64(oldM.Fam.NumInputs()) * (newM.InCapfF - oldM.InCapfF)
	var worst float64
	for _, ni := range eng.FaninNets(ci) {
		n := &b.Nets[ni]
		d := b.DriverR(n.Driver) * dCap * 1e-3
		if math.Abs(d) > math.Abs(worst) {
			worst = d
		}
	}
	return worst
}
