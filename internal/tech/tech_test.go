package tech

import (
	"math"
	"testing"
)

func TestLibraryComplete(t *testing.T) {
	lib := NewLibrary()
	fams := []Family{INV, BUF, NAND2, NOR2, AOI22, XOR2, MUX2, DFF}
	want := len(fams) * len(Drives) * 2
	if len(lib.cells) != want {
		t.Errorf("library has %d cells, want %d", len(lib.cells), want)
	}
	for _, fam := range fams {
		for _, d := range Drives {
			for _, vth := range []VthClass{RVT, HVT} {
				c, err := lib.Cell(fam, d, vth)
				if err != nil {
					t.Fatalf("missing %v X%d %v: %v", fam, d, vth, err)
				}
				if c.Width <= 0 || c.InCapfF <= 0 || c.DriveR <= 0 || c.LeaknW <= 0 || c.IntCap <= 0 {
					t.Errorf("%s has non-positive characterization: %+v", c.Name, c)
				}
			}
		}
	}
}

func TestCellLookupByName(t *testing.T) {
	lib := NewLibrary()
	c, err := lib.ByName("NAND2_X4_RVT")
	if err != nil {
		t.Fatal(err)
	}
	if c.Fam != NAND2 || c.Drive != 4 || c.Vth != RVT {
		t.Errorf("wrong cell: %+v", c)
	}
	if _, err := lib.ByName("BOGUS_X1"); err == nil {
		t.Error("expected error for unknown cell")
	}
	if _, err := lib.Cell(INV, 3, RVT); err == nil {
		t.Error("expected error for uncharacterized drive")
	}
}

func TestDriveScalingMonotonic(t *testing.T) {
	lib := NewLibrary()
	for _, fam := range []Family{INV, BUF, NAND2, DFF} {
		var prev *Cell
		for _, d := range Drives {
			c := lib.MustCell(fam, d, RVT)
			if prev != nil {
				if c.Width <= prev.Width {
					t.Errorf("%v width not increasing at X%d", fam, d)
				}
				if c.DriveR >= prev.DriveR {
					t.Errorf("%v drive resistance not decreasing at X%d", fam, d)
				}
				if c.InCapfF <= prev.InCapfF {
					t.Errorf("%v input cap not increasing at X%d", fam, d)
				}
				if c.LeaknW <= prev.LeaknW {
					t.Errorf("%v leakage not increasing at X%d", fam, d)
				}
			}
			prev = c
		}
	}
}

func TestHVTDerating(t *testing.T) {
	lib := NewLibrary()
	rvt := lib.MustCell(NAND2, 4, RVT)
	hvt := lib.MustCell(NAND2, 4, HVT)
	if math.Abs(hvt.DriveR/rvt.DriveR-HVTDelayFactor) > 1e-9 {
		t.Errorf("HVT drive resistance factor = %v", hvt.DriveR/rvt.DriveR)
	}
	if math.Abs(hvt.LeaknW/rvt.LeaknW-HVTLeakageFactor) > 1e-9 {
		t.Errorf("HVT leakage factor = %v", hvt.LeaknW/rvt.LeaknW)
	}
	if math.Abs(hvt.IntCap/rvt.IntCap-HVTInternalFactor) > 1e-9 {
		t.Errorf("HVT internal factor = %v", hvt.IntCap/rvt.IntCap)
	}
	if hvt.Width != rvt.Width {
		t.Error("Vth flavor must not change the footprint")
	}
}

func TestResizeAndSwapVth(t *testing.T) {
	lib := NewLibrary()
	c := lib.MustCell(INV, 2, RVT)
	up, err := lib.Resize(c, 8)
	if err != nil || up.Drive != 8 || up.Fam != INV || up.Vth != RVT {
		t.Errorf("Resize: %+v, %v", up, err)
	}
	hv, err := lib.SwapVth(c, HVT)
	if err != nil || hv.Vth != HVT || hv.Drive != 2 {
		t.Errorf("SwapVth: %+v, %v", hv, err)
	}
}

func TestDriveSteps(t *testing.T) {
	if NextDriveUp(4) != 8 || NextDriveUp(16) != 0 {
		t.Error("NextDriveUp wrong")
	}
	if NextDriveDown(4) != 2 || NextDriveDown(1) != 0 {
		t.Error("NextDriveDown wrong")
	}
}

func TestMetalStack(t *testing.T) {
	stack := MetalStack()
	if len(stack) != 9 {
		t.Fatalf("stack layers = %d", len(stack))
	}
	for i, m := range stack {
		if m.Index != i+1 {
			t.Errorf("layer %d has index %d", i, m.Index)
		}
	}
	// Upper layers are thicker: lower R, wider pitch.
	if stack[8].ROhmUm >= stack[0].ROhmUm {
		t.Error("top metal must have lower resistance than M1")
	}
	if stack[8].Pitch <= stack[0].Pitch {
		t.Error("top metal must have wider pitch than M1")
	}
	lib := NewLibrary()
	if _, err := lib.Layer(0); err == nil {
		t.Error("layer 0 must error")
	}
	if _, err := lib.Layer(10); err == nil {
		t.Error("layer 10 must error")
	}
	m9, err := lib.Layer(9)
	if err != nil || m9.Name != "M9" {
		t.Errorf("Layer(9) = %v, %v", m9, err)
	}
}

func TestTable1Interconnects(t *testing.T) {
	tsv := DefaultTSV()
	via := DefaultF2FVia()
	// Paper Table 1 values.
	if tsv.Diameter != 5 || tsv.Height != 25 || tsv.Pitch != 10 {
		t.Errorf("TSV geometry = %+v", tsv)
	}
	if via.Diameter != 0.5 || via.Height != 1 || via.Pitch != 1 {
		t.Errorf("F2F geometry = %+v", via)
	}
	if tsv.CfF <= 10*via.CfF {
		t.Error("TSV capacitance must dwarf the F2F via's")
	}
}

func TestScaleModel(t *testing.T) {
	if _, err := NewScaleModel(0.5); err == nil {
		t.Error("scale < 1 must error")
	}
	sm, err := NewScaleModel(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sm.LinearShrink()-math.Sqrt(1000)) > 1e-9 {
		t.Errorf("LinearShrink = %v", sm.LinearShrink())
	}
	if math.Abs(sm.RCInflation()-math.Pow(1000, DefaultRCExp)) > 1e-9 {
		t.Errorf("RCInflation = %v", sm.RCInflation())
	}
	if sm.PowerMultiplier() != 1000 {
		t.Errorf("PowerMultiplier = %v", sm.PowerMultiplier())
	}
	m := MetalStack()[4]
	if sm.WireCPerUm(m) <= m.CfFUm {
		t.Error("effective wire cap must exceed physical at scale > 1")
	}
	// Scale 1 must be identity.
	id, _ := NewScaleModel(1)
	if id.WireCPerUm(m) != m.CfFUm || id.LongWireThreshold() != LongWireThreshold() {
		t.Error("scale 1 must be the identity model")
	}
}

func TestLongWireThreshold(t *testing.T) {
	if LongWireThreshold() != 100*CellHeight {
		t.Errorf("threshold = %v", LongWireThreshold())
	}
}

func TestClockDomains(t *testing.T) {
	if CPUClock.PeriodPS() != 2000 || IOClock.PeriodPS() != 4000 {
		t.Error("periods wrong")
	}
	if CPUClock.FreqMHz() != 500 || IOClock.FreqMHz() != 250 {
		t.Error("frequencies wrong")
	}
	if CPUClock.String() != "CPU" || IOClock.String() != "IO" {
		t.Error("names wrong")
	}
}

func TestDynamicPowerMW(t *testing.T) {
	// 100fF at activity 1, 1000MHz: P = 0.5*1*100e-15*0.81*1e9 W = 40.5µW.
	got := DynamicPowerMW(100, 1, 1000)
	want := 0.5 * 100 * Vdd * Vdd * 1000 * 1e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DynamicPowerMW = %v, want %v", got, want)
	}
	// Linear in each factor.
	if math.Abs(DynamicPowerMW(200, 1, 1000)-2*got) > 1e-12 {
		t.Error("not linear in cap")
	}
	if math.Abs(DynamicPowerMW(100, 0.5, 1000)-got/2) > 1e-12 {
		t.Error("not linear in activity")
	}
}

func TestMacroModel(t *testing.T) {
	m := DefaultMacroModel()
	if m.Area() != m.Width*m.Height {
		t.Error("Area wrong")
	}
	if m.Bits != 16*1024*8 {
		t.Errorf("Bits = %d", m.Bits)
	}
	if m.AccessPS <= 0 || m.AccessPS >= CPUClock.PeriodPS() {
		t.Errorf("AccessPS %v must fit within a CPU cycle", m.AccessPS)
	}
}

func TestFamilyProperties(t *testing.T) {
	if !DFF.IsSequential() || INV.IsSequential() {
		t.Error("IsSequential wrong")
	}
	wantInputs := map[Family]int{INV: 1, BUF: 1, DFF: 1, NAND2: 2, NOR2: 2, XOR2: 2, MUX2: 3, AOI22: 4}
	for fam, n := range wantInputs {
		if fam.NumInputs() != n {
			t.Errorf("%v NumInputs = %d, want %d", fam, fam.NumInputs(), n)
		}
	}
}
