package flow

import (
	"fmt"
	"math"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
)

// sizeOutline computes a die outline for the given content area and aspect
// ratio. contentArea is the placeable area demand (cells with allowances,
// macros with channels, TSV pads).
func sizeOutline(contentArea, aspect float64) geom.Rect {
	if aspect <= 0 {
		aspect = 1
	}
	// No outline side may be smaller than the widest library cell (an X16
	// register is ~25µm) plus placement slack, or legalization cannot fit it.
	const minSide = 30.0
	w := math.Sqrt(contentArea * aspect)
	h := contentArea / w
	if w < minSide {
		w = minSide
		h = contentArea / w
	}
	if h < minSide {
		h = minSide
	}
	// Snap height to whole cell rows.
	rows := math.Ceil(h / tech.CellHeight)
	return geom.NewRect(0, 0, w, rows*tech.CellHeight)
}

// outlineFor sizes a die outline that fits nMacros macros packed in
// full-width rows (with channels) plus cellArea of standard-cell demand in
// the remaining rows, at roughly the requested aspect ratio. Macro rows
// consume the die's full width, so the naive sum of areas underestimates —
// this mirrors the placeMacros packing exactly.
func (f *Flow) outlineFor(cellArea float64, nMacros int, aspect float64) geom.Rect {
	if nMacros == 0 {
		return sizeOutline(cellArea, aspect)
	}
	mm := f.D.Lib.MacroKB
	sh := f.D.Scale.LinearShrink()
	mw := mm.Width/sh + mm.Width/sh*f.Cfg.MacroChannel
	mh := mm.Height/sh + mm.Height/sh*f.Cfg.MacroChannel
	w := math.Sqrt((cellArea + float64(nMacros)*mw*mh) * aspect)
	if w < mw+1 {
		w = mw + 1
	}
	for iter := 0; iter < 4; iter++ {
		perRow := int(w / mw)
		if perRow < 1 {
			perRow = 1
		}
		macroRows := (nMacros + perRow - 1) / perRow
		h := float64(macroRows)*mh + cellArea/w + tech.CellHeight
		// Nudge the width toward the requested aspect.
		target := math.Sqrt(w * h * aspect)
		w = (w + target) / 2
	}
	perRow := int(w / mw)
	if perRow < 1 {
		perRow = 1
	}
	macroRows := (nMacros + perRow - 1) / perRow
	h := float64(macroRows)*mh + cellArea/w + tech.CellHeight
	r := sizeOutline(w*h, w/h)
	return r
}

// cellDemand is the standard-cell row-area demand of die d (or all dies for
// d < 0) including the buffering allowance and utilization target. The
// allowance grows with the block's boundary-pin density: port-heavy blocks
// (the crossbar above all) spend far more area on repeaters — the paper's 2D
// CCX is the extreme case (§4.3).
func (f *Flow) cellDemand(b *netlist.Block, d int, extra float64) float64 {
	allow := f.Cfg.BufferAllowance * (1 + f.portFactor(b.Name, len(b.Cells)))
	return b.CellArea(d)*(1+allow)/f.Cfg.Util + extra
}

// portFactor is the boundary-pin density of a block, capped at 1.
func (f *Flow) portFactor(name string, cells int) float64 {
	if cells <= 0 {
		return 0
	}
	pf := float64(f.D.DrawnPortCount(name)) / float64(cells)
	if pf > 1 {
		pf = 1
	}
	return pf
}

// placeMacros packs the macros of die d in rows from the top edge down,
// memory-compiler style, with routing channels between them. Macros are
// fixed afterwards; the placer treats them as supply holes.
func (f *Flow) placeMacros(b *netlist.Block, d netlist.Die) error {
	var idx []int
	for i := range b.Macros {
		if b.Macros[i].Die == d {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	out := b.Outline[d]
	m0 := b.Macros[idx[0]].Model
	chX := m0.Width * f.Cfg.MacroChannel
	chY := m0.Height * f.Cfg.MacroChannel
	x := out.Lo.X + chX
	y := out.Hi.Y - m0.Height - chY
	for _, i := range idx {
		m := &b.Macros[i]
		if x+m.Model.Width > out.Hi.X {
			// Next row down.
			x = out.Lo.X + chX
			y -= m.Model.Height + chY
		}
		if y < out.Lo.Y {
			return fmt.Errorf("flow: block %s die %s outline %.0fx%.0f cannot fit its %d macros",
				b.Name, d, out.W(), out.H(), len(idx))
		}
		m.Pos = geom.Point{X: x, Y: y}
		m.Fixed = true
		x += m.Model.Width + chX
	}
	return nil
}

// EstimateShape predicts the implemented footprint of a block from its spec
// alone, before any netlist exists — useful for planning before generation.
// dies is 1 for 2D/unfolded blocks and 2 for folded ones (the per-die area
// halves).
func (f *Flow) EstimateShape(spec t2.BlockSpec, dies int) (w, h float64) {
	scale := f.D.Cfg.Scale
	n := float64(spec.Cells) / scale
	if n < 40 {
		n = 40
	}
	// Average cell area of the synthesis mix, µm² (expected value of the
	// generator's family/drive distribution over the library geometry).
	const avgCellArea = 3.9
	allow := f.Cfg.BufferAllowance * (1 + f.portFactor(spec.Name, int(n)))
	cellA := n * avgCellArea * (1 + allow) / f.Cfg.Util / float64(dies)
	macros := (spec.Macros + dies - 1) / dies
	r := f.outlineFor(cellA, macros, spec.Aspect)
	return r.W(), r.H()
}

// ShapeForBlock computes the exact outline the implementation flow would
// give block b in its current (possibly folded) state — the chip floorplan
// uses this so that the fixed floorplan shape and the block implementation
// agree by construction.
func (f *Flow) ShapeForBlock(b *netlist.Block, aspect float64) geom.Rect {
	if !b.Is3D {
		return f.outlineFor(f.cellDemand(b, -1, 0), len(b.Macros), aspect)
	}
	var nm [2]int
	for i := range b.Macros {
		nm[b.Macros[i].Die]++
	}
	extra := f.tsvPadAllowance(b)
	o0 := f.outlineFor(f.cellDemand(b, 0, extra), nm[0], aspect)
	o1 := f.outlineFor(f.cellDemand(b, 1, extra), nm[1], aspect)
	if o1.Area() > o0.Area() {
		return o1
	}
	return o0
}
