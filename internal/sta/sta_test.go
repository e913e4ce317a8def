package sta

import (
	"math"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

// pipeline builds dff -> inv -> inv -> dff with hand-settable parasitics.
func pipeline(t *testing.T) (*netlist.Block, *tech.Library) {
	t.Helper()
	lib := tech.NewLibrary()
	b := netlist.NewBlock("p", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 100, 100)
	ff0 := b.AddCell(netlist.Instance{Name: "ff0", Master: lib.MustCell(tech.DFF, 2, tech.RVT)})
	i1 := b.AddCell(netlist.Instance{Name: "i1", Master: lib.MustCell(tech.INV, 2, tech.RVT)})
	i2 := b.AddCell(netlist.Instance{Name: "i2", Master: lib.MustCell(tech.INV, 2, tech.RVT)})
	ff1 := b.AddCell(netlist.Instance{Name: "ff1", Master: lib.MustCell(tech.DFF, 2, tech.RVT)})
	b.AddNet(netlist.Net{Name: "n0", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: ff0},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: i1}}})
	b.AddNet(netlist.Net{Name: "n1", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: i1},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: i2}}})
	b.AddNet(netlist.Net{Name: "n2", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: i2},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: ff1}}})
	return b, lib
}

func TestPipelineArithmetic(t *testing.T) {
	b, lib := pipeline(t)
	rep, err := Analyze(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: arr(ff0) = clkq + R*(load); loads are pure pin caps here
	// (no extracted wire RC).
	dff := lib.MustCell(tech.DFF, 2, tech.RVT)
	inv := lib.MustCell(tech.INV, 2, tech.RVT)
	a0 := dff.ClkQ + dff.Intr + dff.DriveR*inv.InCapfF*1e-3
	a1 := a0 + inv.Intr + inv.DriveR*inv.InCapfF*1e-3
	a2 := a1 + inv.Intr + inv.DriveR*dff.InCapfF*1e-3
	if math.Abs(rep.ArrOut[1]-a1) > 1e-6 {
		t.Errorf("arr(i1) = %v, want %v", rep.ArrOut[1], a1)
	}
	if math.Abs(rep.ArrOut[2]-a2) > 1e-6 {
		t.Errorf("arr(i2) = %v, want %v", rep.ArrOut[2], a2)
	}
	wantSlack := b.Clock.PeriodPS() - dff.Setup - a2
	if math.Abs(rep.WNS-wantSlack) > 1e-6 {
		t.Errorf("WNS = %v, want %v", rep.WNS, wantSlack)
	}
	if rep.Endpoints != 1 || rep.Failing != 0 {
		t.Errorf("endpoints = %d, failing = %d", rep.Endpoints, rep.Failing)
	}
}

func TestWireDelayCounts(t *testing.T) {
	b, _ := pipeline(t)
	base, err := Analyze(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Add wire parasitics to n1: both extra load on i1 and Elmore delay.
	b.Nets[1].WireCapfF = 50
	b.Nets[1].WireResOhm = 200
	loaded, err := Analyze(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.WNS >= base.WNS {
		t.Errorf("wire RC did not reduce slack: %v vs %v", loaded.WNS, base.WNS)
	}
}

func TestUncertaintyReducesSlack(t *testing.T) {
	b, _ := pipeline(t)
	r0, _ := Analyze(b, 0)
	r50, _ := Analyze(b, 50)
	if math.Abs((r0.WNS-r50.WNS)-50) > 1e-6 {
		t.Errorf("uncertainty not subtracted: %v vs %v", r0.WNS, r50.WNS)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	lib := tech.NewLibrary()
	b := netlist.NewBlock("c", tech.CPUClock)
	i1 := b.AddCell(netlist.Instance{Name: "i1", Master: lib.MustCell(tech.INV, 2, tech.RVT)})
	i2 := b.AddCell(netlist.Instance{Name: "i2", Master: lib.MustCell(tech.INV, 2, tech.RVT)})
	b.AddNet(netlist.Net{Name: "a", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: i1},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: i2}}})
	b.AddNet(netlist.Net{Name: "b", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: i2},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: i1}}})
	if _, err := Analyze(b, 0); err == nil {
		t.Error("expected combinational cycle error")
	}
}

func TestPortBudgets(t *testing.T) {
	lib := tech.NewLibrary()
	mk := func(budget float64) *Report {
		b := netlist.NewBlock("pb", tech.CPUClock)
		in := b.AddPort(netlist.Port{Name: "in", Dir: netlist.In, CapfF: 2, Budget: budget})
		inv := b.AddCell(netlist.Instance{Name: "i", Master: lib.MustCell(tech.INV, 2, tech.RVT)})
		ff := b.AddCell(netlist.Instance{Name: "f", Master: lib.MustCell(tech.DFF, 2, tech.RVT)})
		b.AddNet(netlist.Net{Name: "n0", Driver: netlist.PinRef{Kind: netlist.KindPort, Idx: in},
			Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: inv}}})
		b.AddNet(netlist.Net{Name: "n1", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: inv},
			Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: ff}}})
		rep, err := Analyze(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	loose := mk(300)
	tight := mk(1500)
	if tight.WNS >= loose.WNS {
		t.Errorf("bigger external budget must squeeze the block: %v vs %v", tight.WNS, loose.WNS)
	}
	if math.Abs((loose.WNS-tight.WNS)-1200) > 1e-6 {
		t.Errorf("budget delta not fully reflected: %v", loose.WNS-tight.WNS)
	}
}

func TestOutputPortEndpoint(t *testing.T) {
	lib := tech.NewLibrary()
	b := netlist.NewBlock("op", tech.CPUClock)
	ff := b.AddCell(netlist.Instance{Name: "f", Master: lib.MustCell(tech.DFF, 2, tech.RVT)})
	out := b.AddPort(netlist.Port{Name: "out", Dir: netlist.Out, CapfF: 4, Budget: 400})
	b.AddNet(netlist.Net{Name: "n", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: ff},
		Sinks: []netlist.PinRef{{Kind: netlist.KindPort, Idx: out}}})
	rep, err := Analyze(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Endpoints != 1 {
		t.Fatalf("endpoints = %d", rep.Endpoints)
	}
	dff := lib.MustCell(tech.DFF, 2, tech.RVT)
	arr := dff.ClkQ + dff.Intr + dff.DriveR*4*1e-3
	want := (2000 - 400) - arr
	if math.Abs(rep.WNS-want) > 1e-6 {
		t.Errorf("WNS = %v, want %v", rep.WNS, want)
	}
}

func TestMacroTiming(t *testing.T) {
	lib := tech.NewLibrary()
	b := netlist.NewBlock("m", tech.CPUClock)
	mac := b.AddMacro(netlist.MacroInst{Name: "mem", Model: lib.MacroKB})
	ff := b.AddCell(netlist.Instance{Name: "f", Master: lib.MustCell(tech.DFF, 2, tech.RVT)})
	inv := b.AddCell(netlist.Instance{Name: "i", Master: lib.MustCell(tech.INV, 2, tech.RVT)})
	// Macro output -> inv -> macro input (endpoint) and -> DFF.
	b.AddNet(netlist.Net{Name: "rd", Driver: netlist.PinRef{Kind: netlist.KindMacro, Idx: mac},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: inv}}})
	b.AddNet(netlist.Net{Name: "wr", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: inv},
		Sinks: []netlist.PinRef{{Kind: netlist.KindMacro, Idx: mac, Pin: 7}, {Kind: netlist.KindCell, Idx: ff}}})
	rep, err := Analyze(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two endpoints: the macro input and the DFF D pin.
	if rep.Endpoints != 2 {
		t.Errorf("endpoints = %d, want 2", rep.Endpoints)
	}
	// Arrival through the macro must include its access time.
	if rep.ArrOut[1] < lib.MacroKB.AccessPS {
		t.Errorf("macro access time missing from arrival: %v", rep.ArrOut[1])
	}
}

func TestCellSlackOrdering(t *testing.T) {
	b, _ := pipeline(t)
	rep, err := Analyze(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell on the single path shares the same worst slack.
	if math.Abs(rep.CellSlack[1]-rep.CellSlack[2]) > 1e-6 {
		t.Errorf("path cells should share slack: %v vs %v", rep.CellSlack[1], rep.CellSlack[2])
	}
	// NetSlack of the mid nets matches too.
	if math.Abs(rep.NetSlack[1]-rep.WNS) > 1e-6 {
		t.Errorf("net slack %v != WNS %v", rep.NetSlack[1], rep.WNS)
	}
}
