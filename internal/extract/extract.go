// Package extract estimates post-route parasitics for every net of a block:
// drawn wirelength from pin (and 3D via) locations with a Steiner
// correction, a routing-layer assignment by net length, wire RC from the
// metal-stack constants under the scale model, and the TSV or F2F via RC of
// die-crossing nets (the paper's Table 1 values). The results annotate the
// netlist for the timing and power engines.
package extract

import (
	"fmt"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

// Bonding selects the 3D via model used for die-crossing nets.
type Bonding int

const (
	// F2B is face-to-back bonding: crossings are TSVs (large C).
	F2B Bonding = iota
	// F2F is face-to-face bonding: crossings are F2F vias (negligible RC).
	F2F
)

// String names the bonding style (F2B or F2F).
func (b Bonding) String() string {
	if b == F2F {
		return "F2F"
	}
	return "F2B"
}

// Extractor annotates blocks with parasitics.
type Extractor struct {
	Lib   *tech.Library
	Scale tech.ScaleModel
	Bond  Bonding
	// TSVCoupling enables the TSV-to-wire coupling capacitance model the
	// paper lists as future work (§7): wires routed near a TSV body pick up
	// sidewall coupling. Each TSV pad within a net's expanded bounding box
	// adds CouplingfF to that net.
	TSVCoupling bool
	// CouplingfF is the coupling capacitance per adjacent TSV (fF); zero
	// selects the default.
	CouplingfF float64
	// UseRSMT estimates small nets with an actual rectilinear Steiner tree
	// (geom.RSMT) instead of the statistical HPWL correction — slower but
	// more accurate for the multi-pin nets that dominate net power.
	UseRSMT bool
}

// DefaultTSVCouplingfF is the sidewall coupling between a TSV body and a
// wire routed past it, per via (first-order value from TSV field-solver
// studies at the paper's 5µm via size).
const DefaultTSVCouplingfF = 0.8

// maxCoupledTSVs caps how many TSV bodies one route can couple to: a wire
// passes at most a handful of vias, not every via inside its bounding box.
const maxCoupledTSVs = 3

// New returns an extractor for the given library, scale model and bonding
// style.
func New(lib *tech.Library, scale tech.ScaleModel, bond Bonding) *Extractor {
	return &Extractor{Lib: lib, Scale: scale, Bond: bond}
}

// layerFor picks the routing layer for a net by drawn length. Physical
// thresholds: below ~60µm a net stays on the thin local layers, below
// ~600µm on the intermediate 2x layers, beyond that on the top 4x layers if
// the block may use them (the paper gives only the SPC all nine layers; in
// F2F designs every layer is consumed by the block itself). inf is the
// scale model's RC inflation, hoisted by the caller so one math.Pow serves
// the whole net loop instead of three calls per net.
func (e *Extractor) layerFor(b *netlist.Block, drawnLen, inf float64) int {
	physLen := drawnLen * inf
	switch {
	case physLen < 60:
		return 2
	case physLen < 600:
		return 5
	default:
		if b.MaxRouteLayer >= 8 {
			return 8
		}
		return 7
	}
}

// netLengthWith computes the drawn length through tree, gathering via-free
// nets' pins into *buf (caller scratch, overwritten per call).
func netLengthWith(b *netlist.Block, n *netlist.Net, tree func([]geom.Point) float64, buf *[]geom.Point) float64 {
	if len(n.Vias) == 0 {
		*buf = b.AppendNetPins((*buf)[:0], n)
		return tree(*buf)
	}
	// Per-die segments: pins of each die plus every via point.
	var seg [2][]geom.Point
	add := func(ref netlist.PinRef) {
		d := b.PinDie(ref)
		seg[d] = append(seg[d], b.PinPos(ref))
	}
	add(n.Driver)
	for _, s := range n.Sinks {
		add(s)
	}
	for d := 0; d < 2; d++ {
		if len(seg[d]) == 0 {
			continue
		}
		seg[d] = append(seg[d], n.Vias...)
	}
	var wl float64
	for d := 0; d < 2; d++ {
		if len(seg[d]) >= 2 {
			wl += tree(seg[d])
		}
	}
	return wl
}

// extractNet fills RouteLen, Layer, WireCapfF and WireResOhm for one net.
// inf is the hoisted RC inflation factor; the products keep the
// wl*(perUm*inf) association of tech.WireCPerUm/WireRPerUm so a hoisted
// extraction is bit-identical to the unhoisted one.
func (e *Extractor) extractNet(b *netlist.Block, n *netlist.Net, inf float64, buf *[]geom.Point) error {
	var wl float64
	if e.UseRSMT {
		wl = netLengthWith(b, n, geom.RSMT, buf)
	} else {
		wl = netLengthWith(b, n, geom.SteinerWL, buf)
	}
	n.RouteLen = wl
	n.Layer = e.layerFor(b, wl, inf)
	layer, err := e.Lib.Layer(n.Layer)
	if err != nil {
		return fmt.Errorf("extract: block %s net %s: %v", b.Name, n.Name, err)
	}
	n.WireCapfF = wl * (layer.CfFUm * inf)
	n.WireResOhm = wl * (layer.ROhmUm * inf)
	if n.Crossings > 0 {
		switch e.Bond {
		case F2B:
			n.WireCapfF += float64(n.Crossings) * e.Lib.TSV.CfF
			n.WireResOhm += float64(n.Crossings) * e.Lib.TSV.ROhm
		case F2F:
			n.WireCapfF += float64(n.Crossings) * e.Lib.F2F.CfF
			n.WireResOhm += float64(n.Crossings) * e.Lib.F2F.ROhm
		}
	}
	return nil
}

// Extract fills RouteLen, Layer, WireCapfF and WireResOhm for every net of
// b. Die-crossing nets receive the via parasitics of the bonding style.
func (e *Extractor) Extract(b *netlist.Block) error {
	inf := e.Scale.RCInflation()
	var buf []geom.Point // pin scratch local to this call; e is shared across workers
	for i := range b.Nets {
		if err := e.extractNet(b, &b.Nets[i], inf, &buf); err != nil {
			return err
		}
	}
	if e.TSVCoupling && e.Bond == F2B && len(b.TSVPads) > 0 {
		e.addTSVCoupling(b, &buf)
	}
	return nil
}

// Update re-extracts only the listed nets. Per-net extraction is a pure
// function of that net's own pins, vias and the block's TSV pads, so
// updating the nets a localized edit touched leaves every annotation
// bit-identical to a full Extract — the contract the incremental timing
// engine (sta.Engine) relies on. Duplicate indices are harmless.
func (e *Extractor) Update(b *netlist.Block, nets []int32) error {
	inf := e.Scale.RCInflation()
	couple := e.TSVCoupling && e.Bond == F2B && len(b.TSVPads) > 0
	var buf []geom.Point // pin scratch local to this call; e is shared across workers
	for _, ni := range nets {
		n := &b.Nets[ni]
		if err := e.extractNet(b, n, inf, &buf); err != nil {
			return err
		}
		if couple {
			e.coupleNet(b, n, &buf)
		}
	}
	return nil
}

// addTSVCoupling charges each net for the TSV bodies its route passes: every
// pad whose center falls inside the net's bounding box (expanded by one
// drawn TSV pitch of routing slack) couples to the net.
func (e *Extractor) addTSVCoupling(b *netlist.Block, buf *[]geom.Point) {
	cc := e.CouplingfF
	if cc == 0 {
		cc = DefaultTSVCouplingfF
	}
	// Expansion: one pad edge of clearance around the route estimate.
	slack := 0.0
	if len(b.TSVPads) > 0 {
		slack = b.TSVPads[0].W()
	}
	centers := make([]geom.Point, len(b.TSVPads))
	for i, pad := range b.TSVPads {
		centers[i] = pad.Center()
	}
	for i := range b.Nets {
		n := &b.Nets[i]
		if n.Kind != netlist.Signal || len(n.Sinks) == 0 {
			continue
		}
		*buf = b.AppendNetPins((*buf)[:0], n)
		bb := geom.BoundingBox(*buf).Expand(slack)
		near := 0
		for _, c := range centers {
			if bb.Contains(c) {
				near++
				if near == maxCoupledTSVs {
					break
				}
			}
		}
		n.WireCapfF += float64(near) * cc
	}
}

// coupleNet is the per-net body of addTSVCoupling, used by Update: the same
// pad scan in the same index order, so the coupling charge matches a full
// pass exactly.
func (e *Extractor) coupleNet(b *netlist.Block, n *netlist.Net, buf *[]geom.Point) {
	if n.Kind != netlist.Signal || len(n.Sinks) == 0 {
		return
	}
	cc := e.CouplingfF
	if cc == 0 {
		cc = DefaultTSVCouplingfF
	}
	slack := b.TSVPads[0].W()
	*buf = b.AppendNetPins((*buf)[:0], n)
	bb := geom.BoundingBox(*buf).Expand(slack)
	near := 0
	for _, pad := range b.TSVPads {
		if bb.Contains(pad.Center()) {
			near++
			if near == maxCoupledTSVs {
				break
			}
		}
	}
	n.WireCapfF += float64(near) * cc
}

// TotalLoad returns the full load capacitance seen by net n's driver: wire
// cap plus the input-pin caps of every sink. This is the C in both the delay
// and the net-power models; the paper's "net power = wire power + pin power"
// split falls out of its two terms.
func TotalLoad(b *netlist.Block, n *netlist.Net) (wirefF, pinfF float64) {
	wirefF = n.WireCapfF
	// The common pin kinds are switched inline: PinCap cannot be inlined
	// (its bad-kind panic keeps it over the inliner budget) and this loop
	// is the hottest consumer of pin caps in the whole flow. Same fields,
	// same order — identical sums.
	for _, s := range n.Sinks {
		switch s.Kind {
		case netlist.KindCell:
			pinfF += b.Cells[s.Idx].Master.InCapfF
		case netlist.KindMacro:
			pinfF += b.Macros[s.Idx].Model.InCapfF
		default:
			pinfF += b.PinCap(s)
		}
	}
	return wirefF, pinfF
}
