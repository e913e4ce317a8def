package thermal

import (
	"fmt"
	"testing"

	"fold3d/internal/extract"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/tech"
)

func thermalBlock(t *testing.T, is3D bool) (*netlist.Block, tech.ScaleModel) {
	t.Helper()
	lib := tech.NewLibrary()
	sm, err := tech.NewScaleModel(1000)
	if err != nil {
		t.Fatal(err)
	}
	b := netlist.NewBlock("th", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 60, 60)
	if is3D {
		b.Is3D = true
		b.Outline[1] = b.Outline[0]
	}
	for i := 0; i < 200; i++ {
		die := netlist.DieBottom
		if is3D && i%2 == 1 {
			die = netlist.DieTop
		}
		b.AddCell(netlist.Instance{
			Name:     fmt.Sprintf("c%d", i),
			Master:   lib.MustCell(tech.NAND2, 4, tech.RVT),
			Pos:      geom.Point{X: float64(1 + (i*7)%55), Y: float64(1 + (i*13)%55)},
			Die:      die,
			Activity: 0.2,
		})
	}
	return b, sm
}

func TestBlockTemperatureAboveAmbient(t *testing.T) {
	b, sm := thermalBlock(t, false)
	p := DefaultParams()
	r, err := AnalyzeBlock(b, sm, extract.F2B, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dies != 1 {
		t.Errorf("dies = %d", r.Dies)
	}
	if r.TMaxC <= p.AmbientC {
		t.Errorf("TMax %.2f not above ambient %.2f", r.TMaxC, p.AmbientC)
	}
	if r.TAvgC > r.TMaxC {
		t.Error("average exceeds max")
	}
	if r.TMaxC > 200 {
		t.Errorf("implausible temperature %.1f C", r.TMaxC)
	}
}

func TestZeroPowerStaysAmbient(t *testing.T) {
	lib := tech.NewLibrary()
	_ = lib
	sm, _ := tech.NewScaleModel(1000)
	b := netlist.NewBlock("cold", tech.CPUClock)
	b.Outline[0] = geom.NewRect(0, 0, 40, 40)
	p := DefaultParams()
	r, err := AnalyzeBlock(b, sm, extract.F2B, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.TMaxC > p.AmbientC+0.01 {
		t.Errorf("cold block heated to %.3f", r.TMaxC)
	}
}

func TestStackingRaisesTemperature(t *testing.T) {
	// The same logic folded onto half the footprint doubles the power
	// density: the stack must run hotter.
	b2, sm := thermalBlock(t, false)
	p := DefaultParams()
	r2, err := AnalyzeBlock(b2, sm, extract.F2B, p)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := thermalBlock(t, true)
	// Halve the footprint for the folded version.
	b3.Outline[0] = geom.NewRect(0, 0, 42, 42)
	b3.Outline[1] = b3.Outline[0]
	for i := range b3.Cells {
		c := &b3.Cells[i]
		c.Pos = geom.Point{X: c.Pos.X * 0.7, Y: c.Pos.Y * 0.7}
	}
	r3, err := AnalyzeBlock(b3, sm, extract.F2B, p)
	if err != nil {
		t.Fatal(err)
	}
	if r3.TMaxC <= r2.TMaxC {
		t.Errorf("stacked TMax %.2f not above 2D %.2f", r3.TMaxC, r2.TMaxC)
	}
}

func TestBottomDieRunsHotter(t *testing.T) {
	// The sink cools the top die's backside; the bottom die only leaks
	// through the board path, so it runs hotter.
	b, sm := thermalBlock(t, true)
	r, err := AnalyzeBlock(b, sm, extract.F2B, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.TMaxPerDie[0] <= r.TMaxPerDie[1] {
		t.Errorf("bottom die %.2f not hotter than top %.2f", r.TMaxPerDie[0], r.TMaxPerDie[1])
	}
}

func TestTSVsCoolTheStack(t *testing.T) {
	// Thermal TSVs tighten the vertical coupling: the F2B stack with many
	// TSV pads must run cooler than the same stack without them.
	b, sm := thermalBlock(t, true)
	without, err := AnalyzeBlock(b, sm, extract.F2B, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for x := 2.0; x < 58; x += 4 {
		for y := 2.0; y < 58; y += 4 {
			b.TSVPads = append(b.TSVPads, geom.RectWH(x, y, 0.7, 0.7))
		}
	}
	with, err := AnalyzeBlock(b, sm, extract.F2B, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if with.TMaxC >= without.TMaxC {
		t.Errorf("TSVs did not cool the stack: %.3f vs %.3f", with.TMaxC, without.TMaxC)
	}
}

func TestAnalyzeChip(t *testing.T) {
	sm, _ := tech.NewScaleModel(1000)
	outline := geom.NewRect(0, 0, 400, 400)
	tiles := []ChipPowerTile{
		{Rect: geom.RectWH(20, 20, 100, 100), Die: netlist.DieBottom, PowerMW: 5000},
		{Rect: geom.RectWH(200, 200, 120, 120), Die: netlist.DieTop, PowerMW: 8000},
		{Rect: geom.RectWH(200, 20, 80, 80), Both: true, PowerMW: 4000},
	}
	e := NewEngine()
	if _, err := e.LoadChip(outline, tiles, 2, extract.F2B, 3000, sm, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	r, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if r.TMaxC <= DefaultParams().AmbientC {
		t.Error("chip did not heat up")
	}
	if r.Dies != 2 {
		t.Errorf("dies = %d", r.Dies)
	}
	if _, err := NewEngine().LoadChip(geom.Rect{}, tiles, 2, extract.F2B, 0, sm, DefaultParams()); err == nil {
		t.Error("expected error for empty outline")
	}
}

func TestErrorOnMissingOutline(t *testing.T) {
	sm, _ := tech.NewScaleModel(1000)
	b := netlist.NewBlock("x", tech.CPUClock)
	if _, err := AnalyzeBlock(b, sm, extract.F2B, DefaultParams()); err == nil {
		t.Error("expected error")
	}
}
