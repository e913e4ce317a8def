package flow

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fold3d/internal/errs"
	"fold3d/internal/place"
	"fold3d/internal/thermal"
)

// DefaultThermalViaBudget is the per-block bound on inserted thermal vias
// when ThermalConfig.Enable is set and ViaBudget is left zero.
const DefaultThermalViaBudget = 32

// thermalViaBatch is how many hotspot tiles receive a thermal via between
// incremental re-solves: large enough to amortize the windowed V-cycles,
// small enough that the ranking tracks the moving hotspot.
const thermalViaBatch = 4

// ThermalConfig configures the flow's in-loop thermal planning (DESIGN.md
// §17). With Enable set, folded F2B blocks get a thermal-via stage between
// extraction and buffering: the multigrid engine solves the block's
// temperature field, dummy TSVs are greedily inserted as thermal vias into
// free sites near the hottest tiles (re-solving incrementally per batch),
// and the block is re-legalized and re-extracted so the pads' area and
// coupling costs are honest. The whole config participates in the stage
// cache key; with Enable false no stage is registered and every fingerprint
// is byte-identical to a thermal-unaware flow.
type ThermalConfig struct {
	// Enable turns the thermal-via stage on for folded F2B blocks.
	Enable bool
	// TMaxBudgetC is the peak-temperature budget in °C. When positive, via
	// insertion stops as soon as the predicted peak drops to the budget;
	// zero inserts up to ViaBudget vias unconditionally. The budget is a
	// planning target, not a gate — whether the final prediction still
	// exceeds it ("will it melt") is judged by the serving layer.
	TMaxBudgetC float64
	// ViaBudget bounds the thermal vias inserted per block; 0 selects
	// DefaultThermalViaBudget when Enable is set.
	ViaBudget int
	// TempWeightPerC re-weights the folding criteria by predicted block
	// temperature (core.Criteria.TempWeightPerC) in the experiment layer's
	// hotspot-aware selection; zero keeps selection temperature-blind.
	TempWeightPerC float64
	// Params are the solver constants; the zero value selects
	// thermal.DefaultParams.
	Params thermal.Params
}

// Validate checks the thermal configuration before any work starts. A
// disabled config is always valid; an enabled one requires valid solver
// params, a non-negative via budget, and a plausible temperature budget.
// Failures wrap errs.ErrBadRequest and errs.ErrBadOptions naming the field
// (exit 2 from the CLI, HTTP 400 from fold3dd).
func (tc ThermalConfig) Validate() error {
	if !tc.Enable {
		return nil
	}
	p := tc.Params
	if p == (thermal.Params{}) {
		p = thermal.DefaultParams()
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// Negated range form so NaN is rejected along with out-of-range values.
	if tc.TMaxBudgetC != 0 && !(tc.TMaxBudgetC > p.AmbientC && tc.TMaxBudgetC <= 1000) {
		return fmt.Errorf("flow: %w: %w: thermal TMaxBudgetC must be in (ambient %g, 1000] (0 disables the budget), got %g",
			errs.ErrBadRequest, errs.ErrBadOptions, p.AmbientC, tc.TMaxBudgetC)
	}
	if tc.ViaBudget < 0 {
		return fmt.Errorf("flow: %w: %w: thermal ViaBudget must be >= 0 (0 selects %d), got %d",
			errs.ErrBadRequest, errs.ErrBadOptions, DefaultThermalViaBudget, tc.ViaBudget)
	}
	if !(tc.TempWeightPerC >= 0 && tc.TempWeightPerC < math.Inf(1)) {
		return fmt.Errorf("flow: %w: %w: thermal TempWeightPerC must be >= 0 and finite, got %g",
			errs.ErrBadRequest, errs.ErrBadOptions, tc.TempWeightPerC)
	}
	return nil
}

// getThermal returns a pooled multigrid thermal engine; LoadBlock/ReinitGrid
// restore as-new behavior, so pooled and fresh engines are interchangeable.
func (f *Flow) getThermal() *thermal.Engine {
	if e, ok := f.thermals.Get().(*thermal.Engine); ok {
		return e
	}
	return thermal.NewEngine()
}

// hotTile is one candidate hotspot of a solved thermal field.
type hotTile struct {
	ix, iy int
	tC     float64
}

// hottestTiles ranks the solved field's tiles by temperature (max over dies)
// and returns the hottest n, ties broken by tile index so the ranking is
// deterministic.
func hottestTiles(res *thermal.Result, n int) []hotTile {
	tiles := make([]hotTile, 0, res.NX*res.NY)
	for iy := 0; iy < res.NY; iy++ {
		for ix := 0; ix < res.NX; ix++ {
			i := iy*res.NX + ix
			t := res.MapC[0][i]
			for d := 1; d < res.Dies; d++ {
				if v := res.MapC[d][i]; v > t {
					t = v
				}
			}
			tiles = append(tiles, hotTile{ix: ix, iy: iy, tC: t})
		}
	}
	sort.Slice(tiles, func(a, b int) bool {
		//lint:ignore floatcmp a sort tie-break: equal keys fall through to the index order, any inequality (however tiny) is a valid ordering
		if tiles[a].tC != tiles[b].tC {
			return tiles[a].tC > tiles[b].tC
		}
		if tiles[a].iy != tiles[b].iy {
			return tiles[a].iy < tiles[b].iy
		}
		return tiles[a].ix < tiles[b].ix
	})
	if n < len(tiles) {
		tiles = tiles[:n]
	}
	return tiles
}

// stageThermalVias inserts dummy TSVs as thermal vias into a folded F2B
// block (registered only when Cfg.Thermal.Enable): solve the block's
// temperature field with the multigrid engine, claim the free TSV site
// nearest each of the hottest tiles for a dummy pad, fold the pad's copper
// conductance into the operator incrementally, re-solve the dirty window,
// and repeat until the via budget is spent, the temperature budget is met,
// or the sites run out. Pads claim silicon, so the block is re-legalized
// and re-extracted before buffering sees it.
func (st *implState) stageThermalVias(ctx context.Context) error {
	f, b := st.f, st.b
	tc := f.Cfg.Thermal
	eng := f.getThermal()
	defer f.thermals.Put(eng)

	grid, err := eng.LoadBlock(b, f.D.Scale, f.Cfg.Bond, tc.Params)
	if err != nil {
		return fmt.Errorf("flow: thermal model of %s: %v", b.Name, err)
	}
	res, err := eng.Solve()
	if err != nil {
		return fmt.Errorf("flow: thermal solve of %s: %v", b.Name, err)
	}

	sites, err := place.NewTSVSiteGrid(b, place.DefaultTSVPlanOptions(f.D.Cfg.Scale))
	if err != nil {
		return fmt.Errorf("flow: thermal via sites of %s: %v", b.Name, err)
	}
	// Signal TSVs planned earlier in the flow already own their sites.
	sites.ClaimOverlapping(b.TSVPads)

	// One drawn pad stands for many physical vias — same equivalence
	// LoadBlock applies to the signal TSV population.
	dk := tc.Params.KTSVWPerK * math.Sqrt(f.D.Scale.Scale)
	added := 0
	for added < tc.ViaBudget {
		if tc.TMaxBudgetC > 0 && res.TMaxC <= tc.TMaxBudgetC {
			break
		}
		placed := 0
		for _, ht := range hottestTiles(res, thermalViaBatch) {
			if added >= tc.ViaBudget {
				break
			}
			idx, ok := sites.NearestFree(grid.BinCenter(ht.ix, ht.iy))
			if !ok {
				break // grid exhausted; nothing further can be placed
			}
			sites.Claim(idx)
			pad := sites.PadRect(idx)
			b.TSVPads = append(b.TSVPads, pad)
			b.NumTSV++
			px, py := grid.BinAt(pad.Center())
			eng.AddVertKAt(px, py, dk)
			added++
			placed++
		}
		if placed == 0 {
			break
		}
		if res, err = eng.Resolve(); err != nil {
			return fmt.Errorf("flow: thermal re-solve of %s: %v", b.Name, err)
		}
	}

	if added > 0 {
		// The dummy pads claim placement area exactly like signal TSV pads.
		if err := st.placer.LegalizeAll(b); err != nil {
			return fmt.Errorf("flow: post-thermal-via legalization of %s: %v", b.Name, err)
		}
		if err := f.Ex.Extract(b); err != nil {
			return err
		}
	}
	return nil
}
