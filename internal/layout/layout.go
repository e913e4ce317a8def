// Package layout renders implemented blocks and chips as SVG and text — the
// repository's stand-in for the paper's GDSII layout shots (Figures 2, 5, 6
// and 8): die outlines, macros, standard cells, TSV landing pads and F2F
// vias, colored per die.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"fold3d/internal/floorplan"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
)

// Palette used by the SVG renders.
const (
	colorOutline = "#222222"
	colorMacro   = "#7f8fa6"
	colorCellBot = "#f5c542" // yellow: bottom-die cells (paper Figure 5b)
	colorCellTop = "#35c4cf" // cyan: top-die cells
	colorTSV     = "#2e4bde" // blue: TSV landing pads (paper Figure 6)
	colorF2F     = "#e8b00c" // yellow dots: F2F vias (paper Figure 6)
	colorArray   = "#9e2b2b"
	colorBlock   = "#dfe6ee"
)

// svgCanvas accumulates SVG elements in user units (µm).
type svgCanvas struct {
	sb   strings.Builder
	view geom.Rect
}

func newCanvas(view geom.Rect) *svgCanvas {
	c := &svgCanvas{view: view}
	// Flip Y so the layout renders with the origin at the lower left, like
	// every layout viewer.
	fmt.Fprintf(&c.sb, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.2f %.2f %.2f %.2f" width="800">`+"\n",
		view.Lo.X, view.Lo.Y, view.W(), view.H())
	fmt.Fprintf(&c.sb, `<g transform="translate(0,%.2f) scale(1,-1)">`+"\n", view.Lo.Y+view.Hi.Y)
	return c
}

func (c *svgCanvas) rect(r geom.Rect, fill, stroke string, strokeW float64, opacity float64) {
	fmt.Fprintf(&c.sb, `<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" fill="%s" stroke="%s" stroke-width="%.3f" fill-opacity="%.2f"/>`+"\n",
		r.Lo.X, r.Lo.Y, r.W(), r.H(), fill, stroke, strokeW, opacity)
}

func (c *svgCanvas) dot(p geom.Point, radius float64, fill string) {
	fmt.Fprintf(&c.sb, `<circle cx="%.3f" cy="%.3f" r="%.3f" fill="%s"/>`+"\n", p.X, p.Y, radius, fill)
}

func (c *svgCanvas) label(p geom.Point, size float64, text string) {
	// Labels are drawn un-flipped.
	fmt.Fprintf(&c.sb, `<text x="%.3f" y="%.3f" font-size="%.2f" text-anchor="middle" transform="translate(0,%.2f) scale(1,-1) translate(0,%.2f)">%s</text>`+"\n",
		p.X, -p.Y, size, 0.0, 0.0, text)
}

func (c *svgCanvas) String() string {
	return c.sb.String() + "</g></svg>\n"
}

// RenderBlockSVG draws one die of an implemented block: macros, cells
// (colored by die), TSV pads (blue squares) and F2F via points (yellow dots)
// — the paper's Figure 6 contrast between bonding styles.
func RenderBlockSVG(b *netlist.Block, die netlist.Die) string {
	view := b.Outline[die].Expand(b.Outline[die].W() * 0.02)
	c := newCanvas(view)
	c.rect(b.Outline[die], "none", colorOutline, view.W()*0.003, 1)
	for i := range b.Macros {
		if b.Macros[i].Die != die {
			continue
		}
		c.rect(b.Macros[i].Rect(), colorMacro, colorOutline, view.W()*0.001, 0.9)
	}
	for i := range b.Cells {
		cell := &b.Cells[i]
		if cell.Die != die {
			continue
		}
		fill := colorCellBot
		if die == netlist.DieTop {
			fill = colorCellTop
		}
		c.rect(cell.Rect(), fill, "none", 0, 0.8)
	}
	for _, pad := range b.TSVPads {
		c.rect(pad, colorTSV, "none", 0, 0.95)
	}
	viaR := view.W() * 0.004
	for i := range b.Nets {
		for _, v := range b.Nets[i].Vias {
			if b.NumF2F > 0 {
				c.dot(v, viaR, colorF2F)
			}
		}
	}
	return c.String()
}

// RenderChipSVG draws one die of a chip floorplan: block outlines with
// names, TSV arrays, and (optionally) the inter-block nets.
func RenderChipSVG(fp *floorplan.Floorplan, die netlist.Die, nets []floorplan.ChipNet) string {
	view := fp.Outline.Expand(fp.Outline.W() * 0.02)
	c := newCanvas(view)
	c.rect(fp.Outline, "none", colorOutline, view.W()*0.003, 1)
	names := make([]string, 0, len(fp.Blocks))
	for n := range fp.Blocks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := fp.Blocks[n]
		if !p.Both && p.Die != die {
			continue
		}
		c.rect(p.Rect, colorBlock, colorOutline, view.W()*0.0015, 0.9)
		c.label(p.Rect.Center(), p.Rect.H()*0.18, n)
	}
	for _, a := range fp.Arrays {
		c.rect(a.Rect, colorArray, "none", 0, 0.8)
	}
	return c.String()
}

// ChipSummary returns a text description of a chip floorplan.
func ChipSummary(fp *floorplan.Floorplan) string {
	both, single := 0, 0
	for _, p := range fp.Blocks {
		if p.Both {
			both++
		} else {
			single++
		}
	}
	return fmt.Sprintf("chip %.0f x %.0f um, %d blocks (%d folded), %d TSV arrays (%d TSVs)",
		fp.Outline.W(), fp.Outline.H(), both+single, both, len(fp.Arrays), fp.NumTSV())
}
