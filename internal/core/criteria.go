// Package core implements the paper's primary contributions as reusable
// engines over the substrate packages:
//
//   - the block-folding criteria of §4.1 (total-power portion, net-power
//     portion, long-wire count) that select which blocks are worth splitting
//     across dies;
//   - the block folder itself (§4.3-4.5): natural group folds (CCX's
//     PCX/CPX), min-cut folds, second-level FUB folds inside a core, and
//     cut-inflated partitions for the paper's TSV-count sweeps;
//   - bonding-style evaluation hooks (F2B TSV planning vs F2F via routing)
//     used by the flow.
package core

import (
	"sort"
)

// BlockProfile is the per-block data the folding criteria consume, produced
// by the 2D flow (the paper's Table 3).
type BlockProfile struct {
	Name string
	// Copies is the number of identical instances (8 for SPC/L2D/L2T/L2B).
	Copies int
	// TotalPowerMW is the power of one instance.
	TotalPowerMW float64
	// NetPowerMW is the net (wire+pin) component of one instance.
	NetPowerMW float64
	// LongWires is the count of wires beyond the 100x-cell-height threshold.
	LongWires int
	// PeakTempC is the predicted peak tile temperature of the block (°C)
	// from the thermal engine; zero when no thermal prediction ran. Only
	// consulted when the criteria carry a temperature weight.
	PeakTempC float64
}

// NetPowerPortion returns net power over total power for the block.
func (p BlockProfile) NetPowerPortion() float64 {
	if p.TotalPowerMW == 0 {
		return 0
	}
	return p.NetPowerMW / p.TotalPowerMW
}

// Criteria are the §4.1 folding thresholds.
type Criteria struct {
	// MinTotalPowerPortion: the block (one instance) must consume at least
	// this share of system power ("more than 1%" in the paper).
	MinTotalPowerPortion float64
	// MinNetPowerPortion: folding only pays when wirelength reduction can
	// move total power; memory-dominated blocks fall below this.
	MinNetPowerPortion float64
	// MinLongWires: the block must have enough long wires for folding to
	// shorten.
	MinLongWires int
	// TempWeightPerC makes selection hotspot-aware: folding concentrates a
	// block's power into half the footprint, so a block already predicted
	// hot must promise proportionally more power benefit to justify it. For
	// every °C of PeakTempC above TRefC, the required total-power portion is
	// scaled up by this factor. Zero (the default) keeps selection
	// temperature-blind and Score byte-identical to the historical behavior.
	TempWeightPerC float64
	// TRefC is the temperature (°C) above which TempWeightPerC starts
	// raising the folding bar; typically the ambient/heatsink temperature.
	TRefC float64
}

// DefaultCriteria mirrors the paper's working thresholds: >=1% system power,
// >=35% net-power portion, and a sizeable long-wire population. The paper
// folds L2D despite its ~29% net-power portion because of its footprint
// leverage, so callers can whitelist blocks past the net-power test.
func DefaultCriteria() Criteria {
	return Criteria{
		MinTotalPowerPortion: 0.01,
		MinNetPowerPortion:   0.35,
		MinLongWires:         1,
	}
}

// Selection is the outcome of scoring one block.
type Selection struct {
	Profile           BlockProfile
	TotalPowerPortion float64
	// MinPortionUsed is the effective total-power-portion threshold this
	// block was held to: the criteria's MinTotalPowerPortion, scaled up by
	// the temperature weight when the block is predicted hot.
	MinPortionUsed float64
	PassPower      bool
	PassNetPortion bool
	PassLongWires  bool
}

// Selected reports whether all three criteria pass.
func (s Selection) Selected() bool {
	return s.PassPower && s.PassNetPortion && s.PassLongWires
}

// Score evaluates every profile against the criteria. systemPowerMW is the
// full-chip power (all copies of all blocks). Results are sorted by
// total-power portion, highest first — the paper's Table 3 ordering.
func Score(profiles []BlockProfile, systemPowerMW float64, c Criteria) []Selection {
	out := make([]Selection, 0, len(profiles))
	for _, p := range profiles {
		portion := 0.0
		if systemPowerMW > 0 {
			portion = p.TotalPowerMW / systemPowerMW
		}
		minPortion := c.MinTotalPowerPortion
		if c.TempWeightPerC > 0 && p.PeakTempC > c.TRefC {
			minPortion *= 1 + c.TempWeightPerC*(p.PeakTempC-c.TRefC)
		}
		out = append(out, Selection{
			Profile:           p,
			TotalPowerPortion: portion,
			MinPortionUsed:    minPortion,
			PassPower:         portion >= minPortion,
			PassNetPortion:    p.NetPowerPortion() >= c.MinNetPowerPortion,
			PassLongWires:     p.LongWires >= c.MinLongWires,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].TotalPowerPortion > out[j].TotalPowerPortion
	})
	return out
}
