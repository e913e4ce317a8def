package layout

import (
	"strings"
	"testing"

	"fold3d/internal/floorplan"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

func renderBlock(t *testing.T) *netlist.Block {
	t.Helper()
	lib := tech.NewLibrary()
	b := netlist.NewBlock("lay", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 40, 24)
	b.Outline[1] = b.Outline[0]
	b.AddCell(netlist.Instance{Name: "c0", Master: lib.MustCell(tech.INV, 2, tech.RVT), Pos: geom.Point{X: 2, Y: 1.2}})
	b.AddCell(netlist.Instance{Name: "c1", Master: lib.MustCell(tech.NAND2, 4, tech.RVT), Pos: geom.Point{X: 8, Y: 2.4}, Die: netlist.DieTop})
	mm := lib.MacroKB
	mm.Width, mm.Height = 10, 6
	b.AddMacro(netlist.MacroInst{Name: "m0", Model: mm, Pos: geom.Point{X: 20, Y: 10}})
	b.TSVPads = append(b.TSVPads, geom.RectWH(15, 5, 1, 1))
	b.NumTSV = 1
	return b
}

func TestRenderBlockSVG(t *testing.T) {
	b := renderBlock(t)
	svg := RenderBlockSVG(b, netlist.DieBottom)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, colorMacro) {
		t.Error("macro not rendered")
	}
	if !strings.Contains(svg, colorTSV) {
		t.Error("TSV pad not rendered")
	}
	if !strings.Contains(svg, colorCellBot) {
		t.Error("bottom-die cells not rendered")
	}
	top := RenderBlockSVG(b, netlist.DieTop)
	if !strings.Contains(top, colorCellTop) {
		t.Error("top-die cells not rendered in their color")
	}
}

func TestRenderBlockSVGF2FVias(t *testing.T) {
	b := renderBlock(t)
	b.NumF2F = 1
	b.AddNet(netlist.Net{Name: "n", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: 0},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: 1}},
		Vias:  []geom.Point{{X: 12, Y: 12}}})
	svg := RenderBlockSVG(b, netlist.DieBottom)
	if !strings.Contains(svg, "<circle") || !strings.Contains(svg, colorF2F) {
		t.Error("F2F vias not rendered as dots")
	}
}

func TestRenderChipSVG(t *testing.T) {
	fp := &floorplan.Floorplan{
		Outline: geom.NewRect(0, 0, 100, 80),
		Blocks: map[string]*floorplan.Placed{
			"A": {Name: "A", Rect: geom.RectWH(5, 5, 30, 20)},
			"B": {Name: "B", Rect: geom.RectWH(50, 40, 20, 20), Die: netlist.DieTop},
			"F": {Name: "F", Rect: geom.RectWH(50, 5, 20, 20), Both: true},
		},
		Arrays: []floorplan.TSVArray{{Rect: geom.RectWH(40, 10, 3, 3), Count: 9, Bundle: "A-B"}},
	}
	bot := RenderChipSVG(fp, netlist.DieBottom, nil)
	if !strings.Contains(bot, ">A<") || strings.Contains(bot, ">B<") {
		t.Error("die filtering wrong on bottom render")
	}
	if !strings.Contains(bot, ">F<") {
		t.Error("Both blocks must render on every die")
	}
	if !strings.Contains(bot, colorArray) {
		t.Error("TSV arrays not rendered")
	}
	top := RenderChipSVG(fp, netlist.DieTop, nil)
	if !strings.Contains(top, ">B<") || strings.Contains(top, ">A<") {
		t.Error("die filtering wrong on top render")
	}
}

func TestSummaries(t *testing.T) {
	fp := &floorplan.Floorplan{
		Outline: geom.NewRect(0, 0, 100, 80),
		Blocks: map[string]*floorplan.Placed{
			"A": {Name: "A", Rect: geom.RectWH(0, 0, 10, 10)},
			"F": {Name: "F", Rect: geom.RectWH(20, 0, 10, 10), Both: true},
		},
	}
	cs := ChipSummary(fp)
	if !strings.Contains(cs, "2 blocks (1 folded)") {
		t.Errorf("chip summary: %s", cs)
	}
}
