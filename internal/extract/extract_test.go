package extract

import (
	"fmt"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

func extractBlock(t *testing.T) (*netlist.Block, *tech.Library, tech.ScaleModel) {
	t.Helper()
	lib := tech.NewLibrary()
	sm, err := tech.NewScaleModel(1000)
	if err != nil {
		t.Fatal(err)
	}
	b := netlist.NewBlock("x", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 100, 100)
	a := b.AddCell(netlist.Instance{Name: "a", Master: lib.MustCell(tech.INV, 2, tech.RVT), Pos: geom.Point{X: 0, Y: 0}})
	c := b.AddCell(netlist.Instance{Name: "b", Master: lib.MustCell(tech.NAND2, 2, tech.RVT), Pos: geom.Point{X: 30, Y: 40}})
	b.AddNet(netlist.Net{Name: "n", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: a},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: c}}})
	return b, lib, sm
}

func TestExtractFillsRC(t *testing.T) {
	b, lib, sm := extractBlock(t)
	ex := New(lib, sm, F2B)
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	n := &b.Nets[0]
	if n.RouteLen <= 0 || n.WireCapfF <= 0 || n.WireResOhm <= 0 {
		t.Fatalf("extraction left zeros: %+v", n)
	}
	// Length is the HPWL between the two cell centers (~70um + cell halves).
	if n.RouteLen < 60 || n.RouteLen > 85 {
		t.Errorf("RouteLen = %v", n.RouteLen)
	}
	if n.Layer < 1 || n.Layer > 9 {
		t.Errorf("Layer = %d", n.Layer)
	}
}

func TestRCLinearInLength(t *testing.T) {
	b, lib, sm := extractBlock(t)
	ex := New(lib, sm, F2B)
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	c1 := b.Nets[0].WireCapfF
	l1 := b.Nets[0].RouteLen
	// Move the sink twice as far; same layer bucket -> twice the cap.
	b.Cells[1].Pos = geom.Point{X: 60, Y: 80}
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	c2 := b.Nets[0].WireCapfF
	l2 := b.Nets[0].RouteLen
	if b.Nets[0].Layer == 5 { // both on the same layer bucket
		ratio := (c2 / c1) / (l2 / l1)
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("cap not linear in length: %v", ratio)
		}
	}
}

func TestBondingStyleViaParasitics(t *testing.T) {
	mk := func(bond Bonding) *netlist.Net {
		b, lib, sm := extractBlock(t)
		b.Is3D = true
		b.Outline[1] = b.Outline[0]
		b.Cells[1].Die = netlist.DieTop
		b.Nets[0].Crossings = 1
		b.Nets[0].Vias = []geom.Point{{X: 15, Y: 20}}
		ex := New(lib, sm, bond)
		if err := ex.Extract(b); err != nil {
			t.Fatal(err)
		}
		return &b.Nets[0]
	}
	f2b := mk(F2B)
	f2f := mk(F2F)
	lib := tech.NewLibrary()
	diff := f2b.WireCapfF - f2f.WireCapfF
	want := lib.TSV.CfF - lib.F2F.CfF
	if diff < want-1 || diff > want+1 {
		t.Errorf("via cap difference = %v, want ~%v", diff, want)
	}
}

func TestNetLengthWithVias(t *testing.T) {
	b, _, _ := extractBlock(t)
	b.Is3D = true
	b.Outline[1] = b.Outline[0]
	b.Cells[1].Die = netlist.DieTop
	n := &b.Nets[0]
	var buf []geom.Point
	direct := netLengthWith(b, n, geom.SteinerWL, &buf)
	// A via far off the direct path must lengthen the route.
	n.Vias = []geom.Point{{X: 90, Y: 5}}
	detour := netLengthWith(b, n, geom.SteinerWL, &buf)
	if detour <= direct {
		t.Errorf("via detour did not lengthen the net: %v <= %v", detour, direct)
	}
}

func TestLayerAssignmentByLength(t *testing.T) {
	b, lib, sm := extractBlock(t)
	ex := New(lib, sm, F2B)
	// Short net -> local layers.
	b.Cells[1].Pos = geom.Point{X: 1, Y: 1}
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	shortLayer := b.Nets[0].Layer
	// Long net -> intermediate or global layers.
	b.Cells[1].Pos = geom.Point{X: 95, Y: 95}
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	longLayer := b.Nets[0].Layer
	if shortLayer >= longLayer {
		t.Errorf("layer assignment not monotonic: short M%d, long M%d", shortLayer, longLayer)
	}
}

func TestTopLayerRespectsBlockLimit(t *testing.T) {
	b, lib, sm := extractBlock(t)
	b.Outline[0] = geom.NewRect(0, 0, 2000, 2000)
	b.Cells[1].Pos = geom.Point{X: 1900, Y: 1900} // very long net
	ex2 := New(lib, sm, F2B)
	b.MaxRouteLayer = 7
	if err := ex2.Extract(b); err != nil {
		t.Fatal(err)
	}
	if b.Nets[0].Layer > 7 {
		t.Errorf("net routed above the block's layer limit: M%d", b.Nets[0].Layer)
	}
	b.MaxRouteLayer = 9
	if err := ex2.Extract(b); err != nil {
		t.Fatal(err)
	}
	if b.Nets[0].Layer != 8 {
		t.Errorf("SPC-style block should use the global layers: M%d", b.Nets[0].Layer)
	}
}

func TestTotalLoad(t *testing.T) {
	b, lib, sm := extractBlock(t)
	ex := New(lib, sm, F2B)
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	wire, pins := TotalLoad(b, &b.Nets[0])
	if wire != b.Nets[0].WireCapfF {
		t.Errorf("wire load = %v", wire)
	}
	if pins != b.Cells[1].Master.InCapfF {
		t.Errorf("pin load = %v, want sink input cap", pins)
	}
}

func TestBondingString(t *testing.T) {
	if F2B.String() != "F2B" || F2F.String() != "F2F" {
		t.Error("bonding names wrong")
	}
}

func TestTSVCoupling(t *testing.T) {
	mk := func(coupling bool) float64 {
		b, lib, sm := extractBlock(t)
		b.Is3D = true
		b.Outline[1] = b.Outline[0]
		b.Cells[1].Die = netlist.DieTop
		// A pad right between the two pins, inside the net bbox.
		b.TSVPads = append(b.TSVPads, geom.RectWH(15, 20, 1, 1))
		ex := New(lib, sm, F2B)
		ex.TSVCoupling = coupling
		if err := ex.Extract(b); err != nil {
			t.Fatal(err)
		}
		return b.Nets[0].WireCapfF
	}
	without := mk(false)
	with := mk(true)
	if with-without < DefaultTSVCouplingfF*0.99 || with-without > DefaultTSVCouplingfF*1.01 {
		t.Errorf("coupling delta = %v, want %v", with-without, DefaultTSVCouplingfF)
	}
}

func TestTSVCouplingIgnoresFarPads(t *testing.T) {
	b, lib, sm := extractBlock(t)
	b.Is3D = true
	b.Outline[1] = b.Outline[0]
	b.Cells[1].Die = netlist.DieTop
	// Pad far outside the net bounding box.
	b.TSVPads = append(b.TSVPads, geom.RectWH(95, 95, 1, 1))
	ex := New(lib, sm, F2B)
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	base := b.Nets[0].WireCapfF
	ex.TSVCoupling = true
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	if b.Nets[0].WireCapfF != base {
		t.Errorf("far pad coupled: %v vs %v", b.Nets[0].WireCapfF, base)
	}
}

func TestTSVCouplingOnlyF2B(t *testing.T) {
	b, lib, sm := extractBlock(t)
	b.Is3D = true
	b.Outline[1] = b.Outline[0]
	b.Cells[1].Die = netlist.DieTop
	b.TSVPads = append(b.TSVPads, geom.RectWH(15, 20, 1, 1))
	ex := New(lib, sm, F2F)
	ex.TSVCoupling = true
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	c1 := b.Nets[0].WireCapfF
	ex.TSVCoupling = false
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	if c1 != b.Nets[0].WireCapfF {
		t.Error("coupling applied under F2F bonding")
	}
}

func TestRSMTNetLengthNotLonger(t *testing.T) {
	// For a multi-pin net the tree estimate must not exceed the statistical
	// correction by much, and for the plus configuration it must be shorter.
	lib := tech.NewLibrary()
	sm, _ := tech.NewScaleModel(1)
	b := netlist.NewBlock("r", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 40, 40)
	pos := []geom.Point{{X: 10, Y: 0}, {X: 0, Y: 10}, {X: 20, Y: 10}, {X: 10, Y: 20}}
	for i, p := range pos {
		b.AddCell(netlist.Instance{Name: fmt.Sprintf("c%d", i),
			Master: lib.MustCell(tech.INV, 2, tech.RVT), Pos: p})
	}
	net := netlist.Net{Name: "plus", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: 0}}
	for i := 1; i < 4; i++ {
		net.Sinks = append(net.Sinks, netlist.PinRef{Kind: netlist.KindCell, Idx: int32(i)})
	}
	b.AddNet(net)
	var buf []geom.Point
	stat := netLengthWith(b, &b.Nets[0], geom.SteinerWL, &buf)
	rsmt := netLengthWith(b, &b.Nets[0], geom.RSMT, &buf)
	if rsmt > stat {
		t.Errorf("RSMT %v longer than statistical %v", rsmt, stat)
	}
	// Extraction honors the flag.
	ex := New(lib, sm, F2B)
	ex.UseRSMT = true
	if err := ex.Extract(b); err != nil {
		t.Fatal(err)
	}
	if b.Nets[0].RouteLen != rsmt {
		t.Errorf("extract did not use RSMT: %v vs %v", b.Nets[0].RouteLen, rsmt)
	}
}
