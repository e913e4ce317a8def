package power

import (
	"math"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

func powerBlock(t *testing.T) (*netlist.Block, *tech.Library, tech.ScaleModel) {
	t.Helper()
	lib := tech.NewLibrary()
	sm, err := tech.NewScaleModel(1)
	if err != nil {
		t.Fatal(err)
	}
	b := netlist.NewBlock("p", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 50, 50)
	a := b.AddCell(netlist.Instance{Name: "a", Master: lib.MustCell(tech.INV, 2, tech.RVT), Activity: 0.2})
	c := b.AddCell(netlist.Instance{Name: "c", Master: lib.MustCell(tech.NAND2, 4, tech.RVT), Activity: 0.2})
	b.AddNet(netlist.Net{Name: "n", Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: a},
		Sinks: []netlist.PinRef{{Kind: netlist.KindCell, Idx: c}}, Activity: 0.2, WireCapfF: 10})
	return b, lib, sm
}

func TestConservation(t *testing.T) {
	b, _, sm := powerBlock(t)
	r := Analyze(b, sm)
	if math.Abs(r.TotalMW-(r.CellMW+r.NetMW+r.LeakageMW)) > 1e-12 {
		t.Errorf("total %v != cell %v + net %v + leak %v", r.TotalMW, r.CellMW, r.NetMW, r.LeakageMW)
	}
	if math.Abs(r.NetMW-(r.WireMW+r.PinMW)) > 1e-12 {
		t.Errorf("net %v != wire %v + pin %v", r.NetMW, r.WireMW, r.PinMW)
	}
	if r.TotalMW <= 0 {
		t.Error("non-positive power")
	}
}

func TestHandComputedNetPower(t *testing.T) {
	b, lib, sm := powerBlock(t)
	r := Analyze(b, sm)
	// Wire power: 0.5 * 0.2 * 10fF * Vdd^2 * 500MHz.
	wantWire := tech.DynamicPowerMW(10, 0.2, 500)
	if math.Abs(r.WireMW-wantWire) > 1e-12 {
		t.Errorf("WireMW = %v, want %v", r.WireMW, wantWire)
	}
	wantPin := tech.DynamicPowerMW(lib.MustCell(tech.NAND2, 4, tech.RVT).InCapfF, 0.2, 500)
	if math.Abs(r.PinMW-wantPin) > 1e-12 {
		t.Errorf("PinMW = %v, want %v", r.PinMW, wantPin)
	}
}

func TestLeakageSum(t *testing.T) {
	b, lib, sm := powerBlock(t)
	r := Analyze(b, sm)
	want := (lib.MustCell(tech.INV, 2, tech.RVT).LeaknW + lib.MustCell(tech.NAND2, 4, tech.RVT).LeaknW) * 1e-6
	if math.Abs(r.LeakageMW-want) > 1e-12 {
		t.Errorf("LeakageMW = %v, want %v", r.LeakageMW, want)
	}
}

func TestHVTReducesPower(t *testing.T) {
	b, lib, sm := powerBlock(t)
	rvt := Analyze(b, sm)
	for i := range b.Cells {
		b.Cells[i].Master = lib.MustCell(b.Cells[i].Master.Fam, b.Cells[i].Master.Drive, tech.HVT)
	}
	hvt := Analyze(b, sm)
	if hvt.LeakageMW >= rvt.LeakageMW {
		t.Error("HVT must reduce leakage")
	}
	ratio := hvt.LeakageMW / rvt.LeakageMW
	if math.Abs(ratio-tech.HVTLeakageFactor) > 1e-9 {
		t.Errorf("leakage ratio = %v", ratio)
	}
	if hvt.CellMW >= rvt.CellMW {
		t.Error("HVT must reduce internal power")
	}
}

func TestScaleMultiplier(t *testing.T) {
	b, _, _ := powerBlock(t)
	sm1, _ := tech.NewScaleModel(1)
	sm1000, _ := tech.NewScaleModel(1000)
	r1 := Analyze(b, sm1)
	r1000 := Analyze(b, sm1000)
	if math.Abs(r1000.TotalMW/r1.TotalMW-1000) > 1e-6 {
		t.Errorf("scale multiplier not applied: %v", r1000.TotalMW/r1.TotalMW)
	}
}

func TestClockPowerAttribution(t *testing.T) {
	b, lib, sm := powerBlock(t)
	base := Analyze(b, sm)
	bi := b.AddCell(netlist.Instance{Name: "ckb", Master: lib.MustCell(tech.BUF, 8, tech.RVT), IsClockBuf: true})
	ff := b.AddCell(netlist.Instance{Name: "ff", Master: lib.MustCell(tech.DFF, 2, tech.RVT)})
	b.AddNet(netlist.Net{Name: "ck", Kind: netlist.Clock,
		Driver:    netlist.PinRef{Kind: netlist.KindCell, Idx: bi},
		Sinks:     []netlist.PinRef{{Kind: netlist.KindCell, Idx: ff}},
		WireCapfF: 5, Activity: 2})
	r := Analyze(b, sm)
	if r.ClockMW <= base.ClockMW {
		t.Error("clock power not attributed")
	}
	if r.TotalMW <= base.TotalMW {
		t.Error("added clock network must add power")
	}
}

func TestMacroPower(t *testing.T) {
	b, lib, sm := powerBlock(t)
	base := Analyze(b, sm)
	b.AddMacro(netlist.MacroInst{Name: "m", Model: lib.MacroKB, Activity: 0.5})
	r := Analyze(b, sm)
	if r.CellMW <= base.CellMW {
		t.Error("macro access energy must appear in cell power")
	}
	if r.LeakageMW-base.LeakageMW < lib.MacroKB.LeakmW*0.99 {
		t.Error("macro leakage missing")
	}
}

func TestActivityDefaults(t *testing.T) {
	b, _, sm := powerBlock(t)
	b.Nets[0].Activity = 0
	b.Cells[0].Activity = 0
	r := Analyze(b, sm)
	if r.TotalMW <= 0 {
		t.Error("default activity must yield positive power")
	}
}

func TestReportAdd(t *testing.T) {
	a := Report{TotalMW: 1, CellMW: 0.5, NetMW: 0.3, WireMW: 0.2, PinMW: 0.1, LeakageMW: 0.2, ClockMW: 0.05}
	b := a
	a.Add(b)
	if a.TotalMW != 2 || a.CellMW != 1 || a.ClockMW != 0.1 {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}
