package exp

import (
	"context"
	"strings"
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/extract"
)

func TestTable1MatchesPaper(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	v, ok := tb.Get("diameter")
	if !ok || v[0] != 5 || v[1] != 0.5 {
		t.Errorf("diameters = %v", v)
	}
	v, _ = tb.Get("C")
	if v[0] != 38 || v[1] != 0.25 {
		t.Errorf("capacitances = %v", v)
	}
	if !strings.Contains(tb.String(), "TSV") {
		t.Error("report missing columns")
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{Title: "t", Columns: []string{"a", "b", "c"}}
	tb.Add("m", "u", 10, 5, 20)
	d, ok := tb.Diff("m", 1)
	if !ok || d != -50 {
		t.Errorf("Diff = %v, %v", d, ok)
	}
	d, ok = tb.Diff("m", 2)
	if !ok || d != 100 {
		t.Errorf("Diff = %v", d)
	}
	if _, ok := tb.Get("absent"); ok {
		t.Error("Get must miss for unknown metric")
	}
	if _, ok := tb.Diff("m", 5); ok {
		t.Error("Diff must miss for out-of-range column")
	}
	if _, ok := tb.Diff("m", 0); ok {
		t.Error("Diff must miss for the reference column")
	}
}

func TestBlockWithPortsAttachesPorts(t *testing.T) {
	d, _, err := blockWithPorts(DefaultConfig(), "CCX")
	if err != nil {
		t.Fatal(err)
	}
	b := d.Blocks["CCX"]
	if len(b.Ports) == 0 {
		t.Fatal("no ports attached")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable4L2DFolding(t *testing.T) {
	if testing.Short() {
		t.Skip("block implementation")
	}
	fc, err := Table4(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 4 shape: big footprint saving, small power saving (the
	// macros dominate).
	if fc.FootprintPct > -30 {
		t.Errorf("footprint saving too small: %v%%", fc.FootprintPct)
	}
	if fc.PowerPct < -15 || fc.PowerPct > 5 {
		t.Errorf("L2D power delta = %v%%, want small (paper -5.1%%)", fc.PowerPct)
	}
	if fc.R3D.Stats.NumTSV == 0 {
		t.Error("folded L2D needs TSVs")
	}
}

func TestFigure2CCXShape(t *testing.T) {
	if testing.Short() {
		t.Skip("block implementation sweep")
	}
	r, err := Figure2(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nat := r.Natural
	// Paper Figure 2 shape: footprint roughly halves, wirelength and power
	// drop substantially, with only a handful of TSVs.
	if nat.FootprintPct > -35 {
		t.Errorf("CCX fold footprint %v%%, paper -54.6%%", nat.FootprintPct)
	}
	if nat.PowerPct > -10 {
		t.Errorf("CCX fold power %v%%, paper -32.8%%", nat.PowerPct)
	}
	if nat.R3D.Stats.NumTSV > 10 {
		t.Errorf("natural CCX fold used %d TSVs, paper needs 4", nat.R3D.Stats.NumTSV)
	}
	// The sweep must degrade monotonically-ish: last point clearly worse
	// than the first (paper: -32.8%% at 4 TSVs -> -23.4%% at 6,393).
	first := r.Sweep[0]
	last := r.Sweep[len(r.Sweep)-1]
	if last.Vias <= first.Vias {
		t.Fatal("sweep did not increase via count")
	}
	if last.PowerPct <= first.PowerPct {
		t.Errorf("TSV area overhead did not degrade the benefit: %v -> %v", first.PowerPct, last.PowerPct)
	}
	if r.SVG2D == "" || r.SVG3D == "" {
		t.Error("missing layout renders")
	}
}

func TestFigure7BondingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("partition sweep")
	}
	r, err := Figure7(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Paper: F2F wins in every partition.
	wins := 0
	for _, p := range r.Points {
		if p.F2FPowerN <= p.F2BPowerN {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("F2F won only %d/5 partitions (paper: all)", wins)
	}
	if r.MaxGainPct > -2 {
		t.Errorf("max F2F gain = %v%%, paper -16.2%%", r.MaxGainPct)
	}
}

func TestFoldCompareString(t *testing.T) {
	fc := &FoldCompare{Block: "X", Bond: extract.F2B}
	fc.R2D = nil
	_ = core.DefaultFoldOptions()
	// String formatting requires results; just check fill-free formatting
	// does not panic when values are zero.
	defer func() {
		if recover() != nil {
			t.Skip("String on empty compare is out of contract")
		}
	}()
	_ = fc.FootprintPct
}

func TestFigure4DesignFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("block implementation")
	}
	r, err := Figure4(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Nets3DCount == 0 {
		t.Error("no 3D nets in the merged view")
	}
	for name, content := range map[string]string{
		"verilog": r.Verilog, "def": r.DEF, "lef": r.LEF, "nets": r.Nets3D,
	} {
		if len(content) < 100 {
			t.Errorf("%s artifact suspiciously small (%d bytes)", name, len(content))
		}
	}
	if !strings.Contains(r.LEF, "F2FVIA") {
		t.Error("merged LEF lacks the F2F via layer")
	}
}

func TestAblationTSVCouplingPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("block implementation")
	}
	r, err := AblationTSVCoupling(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.PowerPct <= 0 {
		t.Errorf("coupling must cost power, got %+.2f%%", r.PowerPct)
	}
	if r.PowerPct > 20 {
		t.Errorf("coupling penalty implausibly large: %+.2f%%", r.PowerPct)
	}
}

func TestThermalStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	r, err := ThermalStudy(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byStyle := map[string]ThermalRow{}
	for _, row := range r.Rows {
		byStyle[row.Style.String()] = row
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want all 5 styles", len(r.Rows))
	}
	t2d := byStyle["2D"]
	for _, name := range []string{"core/cache", "core/core", "fold-F2B", "fold-F2F"} {
		row, ok := byStyle[name]
		if !ok {
			t.Fatalf("style %s missing from study", name)
		}
		if row.TMaxC <= t2d.TMaxC {
			t.Errorf("%s Tmax %.1f not above 2D %.1f (stacking doubles power density)",
				name, row.TMaxC, t2d.TMaxC)
		}
		if row.PowerW >= t2d.PowerW*1.05 {
			t.Errorf("%s burns more power than 2D", name)
		}
	}
	// Thermal vias must help exactly the F2B-bonded stacks.
	for _, name := range []string{"core/cache", "core/core", "fold-F2B"} {
		row := byStyle[name]
		if row.ViasAdded == 0 {
			t.Errorf("%s inserted no thermal vias", name)
		}
		if row.TMaxViasC >= row.TMaxC {
			t.Errorf("%s vias did not reduce Tmax (%.2f -> %.2f)", name, row.TMaxC, row.TMaxViasC)
		}
	}
	for _, name := range []string{"2D", "fold-F2F"} {
		row := byStyle[name]
		if row.ViasAdded != 0 {
			t.Errorf("%s got %d thermal vias, want none", name, row.ViasAdded)
		}
		if row.TMaxViasC != row.TMaxC {
			t.Errorf("%s via column diverged without vias", name)
		}
	}
	if len(r.Sel) == 0 {
		t.Error("hotspot-aware selection demo produced no rows")
	}
	for _, s := range r.Sel {
		if s.MinPortionPct < 1 {
			t.Errorf("block %s effective threshold %.3f%% below the 1%% base", s.Block, s.MinPortionPct)
		}
		if s.Selected && !s.SelectedCold {
			t.Errorf("block %s selected hot but not cold: temp weight can only raise the bar", s.Block)
		}
	}
}

func TestThermalStudyMeltVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	cfg := DefaultConfig()
	cfg.Thermal.TMaxBudgetC = 60 // below the stacks' typical peak: verdict must fire
	r, err := ThermalStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TMaxBudgetC != 60 {
		t.Fatalf("budget not echoed: %g", r.TMaxBudgetC)
	}
	melts := 0
	for _, row := range r.Rows {
		if row.Melts {
			melts++
			if row.TMaxViasC <= 60 {
				t.Errorf("%s marked melting at %.2f C <= budget", row.Style, row.TMaxViasC)
			}
		}
	}
	if melts == 0 {
		t.Error("no style exceeds a 60 C budget; verdict never exercised")
	}
	if !strings.Contains(r.String(), "MELTS") {
		t.Error("report does not render the melt verdict")
	}
}
