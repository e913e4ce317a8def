package netlist

import (
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/tech"
)

func statsBlock(t *testing.T) *Block {
	t.Helper()
	lib := tech.NewLibrary()
	b := NewBlock("s", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 100, 48)
	for i := 0; i < 4; i++ {
		g := "g0"
		if i >= 2 {
			g = "g1"
		}
		b.AddCell(Instance{
			Name:   "c",
			Master: lib.MustCell(tech.INV, tech.Drives[i%len(tech.Drives)], tech.RVT),
			Group:  g,
		})
	}
	b.AddMacro(MacroInst{Name: "m", Model: lib.MacroKB, Group: "g0"})
	b.AddNet(Net{Name: "n0", Driver: PinRef{Kind: KindCell, Idx: 0},
		Sinks: []PinRef{{Kind: KindCell, Idx: 1}}, RouteLen: 5})
	b.AddNet(Net{Name: "n1", Driver: PinRef{Kind: KindCell, Idx: 1},
		Sinks: []PinRef{{Kind: KindCell, Idx: 2}, {Kind: KindCell, Idx: 3}}, RouteLen: 50})
	b.AddNet(Net{Name: "n2", Driver: PinRef{Kind: KindCell, Idx: 2},
		Sinks: []PinRef{{Kind: KindCell, Idx: 3}}, RouteLen: 80})
	return b
}

func TestCollectStats(t *testing.T) {
	b := statsBlock(t)
	s := CollectStats(b, 40)
	if s.NumCells != 4 || s.NumMacros != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.Wirelength != 135 {
		t.Errorf("Wirelength = %v", s.Wirelength)
	}
	if s.NumLongWire != 2 {
		t.Errorf("NumLongWire = %d, want 2 (nets over 40um)", s.NumLongWire)
	}
	if s.Footprint != b.Outline[0].Area() {
		t.Errorf("Footprint = %v", s.Footprint)
	}
}

func TestGroups(t *testing.T) {
	b := statsBlock(t)
	names := GroupNames(b)
	if len(names) != 2 || names[0] != "g0" || names[1] != "g1" {
		t.Errorf("GroupNames = %v", names)
	}
}

func TestCellAreaByDieAndCuts(t *testing.T) {
	b := statsBlock(t)
	b.Cells[2].Die = DieTop
	b.Cells[3].Die = DieTop
	a := CellAreaByDie(b)
	if a[0] <= 0 || a[1] <= 0 {
		t.Errorf("CellAreaByDie = %v", a)
	}
	var cuts []int
	for i := range b.Nets {
		if b.NetIs3D(&b.Nets[i]) {
			cuts = append(cuts, i)
		}
	}
	if len(cuts) != 1 || cuts[0] != 1 {
		t.Errorf("3D nets = %v (net n1 crosses)", cuts)
	}
}

func TestMeanDrive(t *testing.T) {
	b := statsBlock(t)
	// Drives used: X1, X2, X4, X8 -> mean 3.75.
	if got := MeanDrive(b); got != 3.75 {
		t.Errorf("MeanDrive = %v", got)
	}
}

func TestCountVth(t *testing.T) {
	b := statsBlock(t)
	lib := tech.NewLibrary()
	b.Cells[0].Master = lib.MustCell(tech.INV, 1, tech.HVT)
	rvt, hvt := CountVth(b)
	if rvt != 3 || hvt != 1 {
		t.Errorf("CountVth = %d, %d", rvt, hvt)
	}
}
