package route

import (
	"fmt"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

func TestGridConstruction(t *testing.T) {
	g, err := NewGrid(geom.NewRect(0, 0, 20, 10), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.nx != 10 || g.ny != 5 {
		t.Errorf("dims = %d x %d", g.nx, g.ny)
	}
	if _, err := NewGrid(geom.Rect{}, DefaultOptions()); err == nil {
		t.Error("expected error for empty region")
	}
}

func TestRoute2PinSamePlane(t *testing.T) {
	g, _ := NewGrid(geom.NewRect(0, 0, 40, 40), DefaultOptions())
	p, err := g.Route2Pin(geom.Point{X: 1, Y: 1}, 0, geom.Point{X: 39, Y: 39}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vias) != 0 {
		t.Errorf("same-plane route used %d vias", len(p.Vias))
	}
	// Manhattan distance is 19+19 gcells = 76um of routed length.
	if p.LenUm < 70 || p.LenUm > 90 {
		t.Errorf("routed length = %v", p.LenUm)
	}
}

func TestRoute2PinCrossPlane(t *testing.T) {
	g, _ := NewGrid(geom.NewRect(0, 0, 40, 40), DefaultOptions())
	p, err := g.Route2Pin(geom.Point{X: 1, Y: 1}, 0, geom.Point{X: 39, Y: 39}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vias) != 1 {
		t.Errorf("cross-plane route used %d vias, want exactly 1", len(p.Vias))
	}
}

func TestCongestionSpreadsRoutes(t *testing.T) {
	opt := DefaultOptions()
	opt.Capacity = 1
	g, _ := NewGrid(geom.NewRect(0, 0, 40, 40), opt)
	// Route many parallel connections; congestion must produce overflow
	// accounting but routes must still complete.
	for i := 0; i < 20; i++ {
		if _, err := g.Route2Pin(geom.Point{X: 1, Y: 20}, 0, geom.Point{X: 39, Y: 20}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if g.Overflow() == 0 {
		t.Error("expected overflow with capacity 1")
	}
}

// foldedNetBlock builds a 3D block with die-crossing nets for via placement.
func foldedNetBlock(t *testing.T, crossing int) *netlist.Block {
	t.Helper()
	lib := tech.NewLibrary()
	b := netlist.NewBlock("r", tech.CPUClock)
	b.Is3D = true
	b.Outline[0] = geom.NewRect(0, 0, 50, 50)
	b.Outline[1] = b.Outline[0]
	for i := 0; i < 2*crossing; i++ {
		die := netlist.DieBottom
		if i%2 == 1 {
			die = netlist.DieTop
		}
		b.AddCell(netlist.Instance{
			Name:   fmt.Sprintf("c%d", i),
			Master: lib.MustCell(tech.INV, 2, tech.RVT),
			Pos:    geom.Point{X: float64(1 + i*2%45), Y: float64(1 + (i*7)%45)},
			Die:    die,
		})
	}
	for i := 0; i < crossing; i++ {
		b.AddNet(netlist.Net{
			Name:   fmt.Sprintf("x%d", i),
			Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: int32(2 * i)},
			Sinks:  []netlist.PinRef{{Kind: netlist.KindCell, Idx: int32(2*i + 1)}},
		})
	}
	return b
}

func TestPlaceF2FVias(t *testing.T) {
	b := foldedNetBlock(t, 15)
	g, err := PlaceF2FVias(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.NumF2F != 15 {
		t.Errorf("NumF2F = %d, want 15 (one via per 2-pin crossing net)", b.NumF2F)
	}
	for i := range b.Nets {
		n := &b.Nets[i]
		if b.NetIs3D(n) && (len(n.Vias) == 0 || n.Crossings == 0) {
			t.Errorf("3D net %s got no via", n.Name)
		}
	}
	if g.MaxViaDensity() < 1 {
		t.Error("via density tracking broken")
	}
	if len(b.TSVPads) != 0 {
		t.Error("F2F vias must not create silicon pads")
	}
}

func TestPlaceF2FViasOverMacros(t *testing.T) {
	// Unlike TSVs, F2F vias may land over macros — the paper's Figure 6(b).
	b := foldedNetBlock(t, 10)
	lib := tech.NewLibrary()
	mm := lib.MacroKB
	mm.Width, mm.Height = 48, 48 // nearly the whole die
	b.AddMacro(netlist.MacroInst{Name: "m", Model: mm, Pos: geom.Point{X: 1, Y: 1}, Die: netlist.DieBottom, Fixed: true})
	if _, err := PlaceF2FVias(b, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	over := 0
	macro := b.Macros[0].Rect()
	for i := range b.Nets {
		for _, v := range b.Nets[i].Vias {
			if macro.Contains(v) {
				over++
			}
		}
	}
	if over == 0 {
		t.Error("expected F2F vias over the macro")
	}
}

func TestPlaceF2FViasErrorsOn2D(t *testing.T) {
	b := foldedNetBlock(t, 2)
	b.Is3D = false
	if _, err := PlaceF2FVias(b, DefaultOptions()); err == nil {
		t.Error("expected error on 2D block")
	}
}

func TestMidpointBaseline(t *testing.T) {
	b := foldedNetBlock(t, 15)
	pile, err := PlaceViasMidpoint(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.NumF2F != 15 {
		t.Errorf("NumF2F = %d", b.NumF2F)
	}
	if pile < 1 {
		t.Errorf("max pile = %d", pile)
	}
}

func TestRoutedViasSpreadBetterThanMidpoint(t *testing.T) {
	// Nets sharing the same crossing region: the router must spread vias
	// under congestion while the midpoint baseline piles them up.
	mk := func() *netlist.Block {
		lib := tech.NewLibrary()
		b := netlist.NewBlock("s", tech.CPUClock)
		b.Is3D = true
		b.Outline[0] = geom.NewRect(0, 0, 40, 40)
		b.Outline[1] = b.Outline[0]
		for i := 0; i < 40; i++ {
			die := netlist.DieBottom
			if i%2 == 1 {
				die = netlist.DieTop
			}
			// All drivers at the left edge, all sinks at the right: every
			// midpoint lands at x=20.
			x := 1.0
			if i%2 == 1 {
				x = 39
			}
			b.AddCell(netlist.Instance{
				Name:   fmt.Sprintf("c%d", i),
				Master: lib.MustCell(tech.INV, 2, tech.RVT),
				Pos:    geom.Point{X: x, Y: 20},
				Die:    die,
			})
		}
		for i := 0; i < 20; i++ {
			b.AddNet(netlist.Net{
				Name:   fmt.Sprintf("x%d", i),
				Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: int32(2 * i)},
				Sinks:  []netlist.PinRef{{Kind: netlist.KindCell, Idx: int32(2*i + 1)}},
			})
		}
		return b
	}
	opt := DefaultOptions()
	opt.Capacity = 2
	b1 := mk()
	g, err := PlaceF2FVias(b1, opt)
	if err != nil {
		t.Fatal(err)
	}
	b2 := mk()
	midPile, err := PlaceViasMidpoint(b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxViaDensity() > midPile {
		t.Errorf("router piled vias worse than midpoint: %d vs %d", g.MaxViaDensity(), midPile)
	}
}
