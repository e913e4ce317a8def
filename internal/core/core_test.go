package core

import (
	"fmt"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/rng"
	"fold3d/internal/tech"
)

func TestCriteriaScoring(t *testing.T) {
	profiles := []BlockProfile{
		{Name: "SPC", Copies: 8, TotalPowerMW: 580, NetPowerMW: 320, LongWires: 277},
		{Name: "L2D", Copies: 8, TotalPowerMW: 210, NetPowerMW: 61, LongWires: 65}, // net-power poor
		{Name: "CCX", Copies: 1, TotalPowerMW: 280, NetPowerMW: 161, LongWires: 124},
		{Name: "CCU", Copies: 1, TotalPowerMW: 20, NetPowerMW: 9, LongWires: 4}, // too small
	}
	system := float64(580*8 + 210*8 + 280 + 20)
	sel := Score(profiles, system, DefaultCriteria())
	if len(sel) != 4 {
		t.Fatalf("selections = %d", len(sel))
	}
	// Sorted by power portion descending.
	for i := 1; i < len(sel); i++ {
		if sel[i].TotalPowerPortion > sel[i-1].TotalPowerPortion {
			t.Error("selections not sorted")
		}
	}
	byName := map[string]Selection{}
	for _, s := range sel {
		byName[s.Profile.Name] = s
	}
	if !byName["SPC"].Selected() || !byName["CCX"].Selected() {
		t.Error("SPC and CCX must pass all criteria")
	}
	if byName["L2D"].Selected() {
		t.Error("L2D must fail the net-power criterion (paper: ~29% net power)")
	}
	if !byName["L2D"].PassPower || byName["L2D"].PassNetPortion {
		t.Error("L2D should pass power but fail net portion")
	}
	if byName["CCU"].PassPower {
		t.Error("CCU is below the 1% system-power bar")
	}
}

// groupedBlock builds a block with two isolated groups plus a bridge net,
// and a couple of macros.
func groupedBlock(t *testing.T, perGroup int) *netlist.Block {
	if t != nil {
		t.Helper()
	}
	lib := tech.NewLibrary()
	r := rng.New(11)
	b := netlist.NewBlock("g", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 60, 60)
	groups := []string{"pcx", "cpx"}
	for gi, g := range groups {
		for i := 0; i < perGroup; i++ {
			b.AddCell(netlist.Instance{
				Name:   fmt.Sprintf("%s_c%d", g, i),
				Master: lib.MustCell(tech.NAND2, 2, tech.RVT),
				Group:  g,
				Pos:    geom.Point{X: r.Range(1, 55), Y: r.Range(1, 55)},
			})
			_ = gi
		}
	}
	// Intra-group nets.
	for gi := range groups {
		base := int32(gi * perGroup)
		for i := 0; i < perGroup-1; i++ {
			b.AddNet(netlist.Net{
				Name:   fmt.Sprintf("n%d_%d", gi, i),
				Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: base + int32(i)},
				Sinks:  []netlist.PinRef{{Kind: netlist.KindCell, Idx: base + int32(i+1)}},
			})
		}
	}
	// One bridge, driven by the tail of the pcx chain (which drives no
	// other net, keeping the netlist single-driver).
	b.AddNet(netlist.Net{
		Name:   "bridge",
		Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: int32(perGroup - 1)},
		Sinks:  []netlist.PinRef{{Kind: netlist.KindCell, Idx: int32(perGroup)}},
	})
	mm := lib.MacroKB
	mm.Width, mm.Height = 5, 4
	b.AddMacro(netlist.MacroInst{Name: "m0", Model: mm, Group: "pcx"})
	b.AddMacro(netlist.MacroInst{Name: "m1", Model: mm, Group: "cpx"})
	return b
}

func TestFoldNatural(t *testing.T) {
	b := groupedBlock(t, 30)
	res, err := Fold(b, FoldOptions{Mode: FoldNatural, GroupDie: map[string]int{"pcx": 0, "cpx": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Is3D {
		t.Fatal("block not marked 3D")
	}
	for i := range b.Cells {
		want := netlist.DieBottom
		if b.Cells[i].Group == "cpx" {
			want = netlist.DieTop
		}
		if b.Cells[i].Die != want {
			t.Fatalf("cell %s on wrong die", b.Cells[i].Name)
		}
	}
	if b.Macros[0].Die != netlist.DieBottom || b.Macros[1].Die != netlist.DieTop {
		t.Error("macros must follow their groups")
	}
	if res.CutNets != 1 {
		t.Errorf("cut = %d, want 1 (the bridge)", res.CutNets)
	}
}

func TestFoldNaturalNeedsGroups(t *testing.T) {
	b := groupedBlock(t, 5)
	if _, err := Fold(b, FoldOptions{Mode: FoldNatural}); err == nil {
		t.Error("expected error without GroupDie")
	}
}

func TestFoldMinCutBalances(t *testing.T) {
	b := groupedBlock(t, 40)
	res, err := Fold(b, FoldOptions{Mode: FoldMinCut, BalanceTol: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := res.AreaPerDie[0] + res.AreaPerDie[1]
	frac := res.AreaPerDie[0] / total
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("area balance = %v", frac)
	}
	// Min-cut should find the bridge structure: cut stays small.
	if res.CutNets > 5 {
		t.Errorf("cut = %d, expected near 1", res.CutNets)
	}
}

func TestFoldSecondLevel(t *testing.T) {
	lib := tech.NewLibrary()
	b := netlist.NewBlock("spc", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 60, 60)
	r := rng.New(7)
	groups := []string{"exu", "lsu", "pmu", "gkt"}
	per := 25
	for _, g := range groups {
		for i := 0; i < per; i++ {
			b.AddCell(netlist.Instance{
				Name:   fmt.Sprintf("%s%d", g, i),
				Master: lib.MustCell(tech.NAND2, 2, tech.RVT),
				Group:  g,
				Pos:    geom.Point{X: r.Range(1, 55), Y: r.Range(1, 55)},
			})
		}
	}
	for gi := range groups {
		base := int32(gi * per)
		for i := 0; i < per-1; i++ {
			b.AddNet(netlist.Net{
				Name:   fmt.Sprintf("n%d_%d", gi, i),
				Driver: netlist.PinRef{Kind: netlist.KindCell, Idx: base + int32(i)},
				Sinks:  []netlist.PinRef{{Kind: netlist.KindCell, Idx: base + int32(i+1)}},
			})
		}
	}
	_, err := Fold(b, FoldOptions{Mode: FoldSecondLevel, FoldGroups: []string{"exu", "lsu"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Folded groups must span both dies; unfolded groups must not split.
	span := map[string][2]int{}
	for i := range b.Cells {
		s := span[b.Cells[i].Group]
		s[b.Cells[i].Die]++
		span[b.Cells[i].Group] = s
	}
	for _, g := range []string{"exu", "lsu"} {
		if span[g][0] == 0 || span[g][1] == 0 {
			t.Errorf("folded FUB %s not split: %v", g, span[g])
		}
	}
	for _, g := range []string{"pmu", "gkt"} {
		if span[g][0] != 0 && span[g][1] != 0 {
			t.Errorf("unfolded FUB %s was split: %v", g, span[g])
		}
	}
}

func TestFoldSecondLevelNeedsGroups(t *testing.T) {
	b := groupedBlock(t, 5)
	if _, err := Fold(b, FoldOptions{Mode: FoldSecondLevel}); err == nil {
		t.Error("expected error without FoldGroups")
	}
}

func TestInflateCutReachesTarget(t *testing.T) {
	b := groupedBlock(t, 40)
	res, err := Fold(b, FoldOptions{
		Mode: FoldNatural, GroupDie: map[string]int{"pcx": 0, "cpx": 1},
		InflateCutTo: 20, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutNets < 20 {
		t.Errorf("cut = %d, want >= 20", res.CutNets)
	}
}

func TestMovePortsWithLogic(t *testing.T) {
	b := groupedBlock(t, 10)
	// A port whose net sinks into cpx cells.
	p := b.AddPort(netlist.Port{Name: "pin", Dir: netlist.In})
	b.AddNet(netlist.Net{
		Name:   "pnet",
		Driver: netlist.PinRef{Kind: netlist.KindPort, Idx: p},
		Sinks: []netlist.PinRef{
			{Kind: netlist.KindCell, Idx: 1}, // pcx
			{Kind: netlist.KindCell, Idx: 2}, // pcx
		},
	})
	if _, err := Fold(b, FoldOptions{Mode: FoldNatural, GroupDie: map[string]int{"pcx": 1, "cpx": 0}}); err != nil {
		t.Fatal(err)
	}
	if b.Ports[p].Die != netlist.DieTop {
		t.Error("port did not follow its logic to the top die")
	}
}

func TestUnknownModeErrors(t *testing.T) {
	b := groupedBlock(t, 5)
	if _, err := Fold(b, FoldOptions{Mode: FoldMode(99)}); err == nil {
		t.Error("expected error for unknown mode")
	}
}
