package t2

import (
	"fmt"

	"fold3d/internal/floorplan"
)

// Style enumerates the five full-chip design styles of the paper's Figure 8.
type Style int

const (
	// Style2D is the flat baseline following the original T2 floorplan.
	Style2D Style = iota
	// StyleCoreCache stacks all cores on one die and the cache/rest on the
	// other (Figure 8b).
	StyleCoreCache
	// StyleCoreCore puts four cores plus their L2 slices on each die
	// (Figure 8c).
	StyleCoreCore
	// StyleFoldF2B folds SPC/CCX/L2D/L2T/MAC across both dies with TSVs
	// (Figure 8d).
	StyleFoldF2B
	// StyleFoldF2F folds the same five block types with F2F vias
	// (Figure 8e).
	StyleFoldF2F
)

// String names the design style as the paper labels it.
func (s Style) String() string {
	switch s {
	case Style2D:
		return "2D"
	case StyleCoreCache:
		return "core/cache"
	case StyleCoreCore:
		return "core/core"
	case StyleFoldF2B:
		return "fold-F2B"
	case StyleFoldF2F:
		return "fold-F2F"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Is3D reports whether the style is a two-die stack.
func (s Style) Is3D() bool { return s != Style2D }

// Folded reports whether the style folds blocks.
func (s Style) Folded() bool { return s == StyleFoldF2B || s == StyleFoldF2F }

// row builds a floorplan row.
func row(names ...string) floorplan.Row { return floorplan.Row{Names: names} }

func seq(prefix string, from, to int) []string {
	var out []string
	for i := from; i <= to; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// Rows returns the per-die user-defined row plan of the style (bottom row
// first, die 0 then die 1), mirroring the arrangements of Figure 8: SPCs on
// the chip's top and bottom edges, L2 arrays inside them, CCX and the
// control units in the center row, and the NIU cluster at the chip bottom.
func Rows(style Style) [2][]floorplan.Row {
	switch style {
	case Style2D:
		return [2][]floorplan.Row{{
			row("MAC", "RTX", "TDS", "RDP", "SII", "SIO"),
			row(seq("SPC", 4, 7)...),
			row("L2D4", "L2T4", "L2T5", "L2D5", "L2D6", "L2T6", "L2T7", "L2D7"),
			row("MCU0", "L2B4", "L2B5", "L2B0", "NCU", "CCX", "CCU", "L2B1", "L2B6", "L2B7", "MCU1"),
			row("L2D0", "L2T0", "L2T1", "L2D1", "L2D2", "L2T2", "L2T3", "L2D3"),
			row(seq("SPC", 0, 3)...),
			row("MCU2", "MCU3", "L2B2", "L2B3", "DMU"),
		}, nil}
	case StyleCoreCache:
		// Die 0: caches, memory controllers, NIU. Die 1: cores, crossbar,
		// control.
		return [2][]floorplan.Row{
			{
				row("MAC", "RTX", "TDS", "RDP"),
				row("L2D4", "L2D5", "L2T4", "L2T5", "L2T6", "L2T7", "L2D6", "L2D7"),
				row("MCU0", "L2B4", "L2B5", "L2B0", "L2B1", "L2B2", "L2B3", "L2B6", "L2B7", "MCU1"),
				row("L2D0", "L2D1", "L2T0", "L2T1", "L2T2", "L2T3", "L2D2", "L2D3"),
				row("MCU2", "MCU3", "SII", "SIO"),
			},
			{
				row(seq("SPC", 4, 7)...),
				row("NCU", "CCX", "CCU"),
				row(seq("SPC", 0, 3)...),
				row("DMU"),
			},
		}
	case StyleCoreCore:
		// Four cores plus their L2 slices per die; CCX spans the center of
		// die 0 (its partner ports cross dies).
		return [2][]floorplan.Row{
			{
				row("MAC", "RTX", "TDS", "RDP"),
				row(seq("SPC", 0, 3)...),
				row("L2D0", "L2T0", "L2T1", "L2D1", "L2D2", "L2T2", "L2T3", "L2D3"),
				row("MCU0", "L2B0", "L2B1", "NCU", "CCX", "L2B2", "L2B3", "MCU1"),
			},
			{
				row("SII", "SIO", "DMU"),
				row(seq("SPC", 4, 7)...),
				row("L2D4", "L2T4", "L2T5", "L2D5", "L2D6", "L2T6", "L2T7", "L2D7"),
				row("MCU2", "L2B4", "L2B5", "CCU", "L2B6", "L2B7", "MCU3"),
			},
		}
	case StyleFoldF2B, StyleFoldF2F:
		// Folded blocks (SPC, CCX, L2D, L2T, MAC) occupy both dies; the
		// rest splits across dies. SPCs sit on the chip's top and bottom
		// edges (under F2B their two routing-layer profiles would otherwise
		// block over-the-block routes, §6.1); CCX is dead center.
		return [2][]floorplan.Row{
			{
				row("MAC", "RTX", "TDS", "RDP"),
				row(seq("SPC", 4, 7)...),
				row("L2D4", "L2T4", "L2T5", "L2D5", "L2D6", "L2T6", "L2T7", "L2D7"),
				row("L2B4", "L2B5", "NCU", "CCX", "CCU", "L2B6", "L2B7"),
				row("L2D0", "L2T0", "L2T1", "L2D1", "L2D2", "L2T2", "L2T3", "L2D3"),
				row(seq("SPC", 0, 3)...),
				row("MCU0", "MCU1", "SII", "SIO", "DMU", "MCU2", "MCU3"),
			},
			{
				row("L2B0", "L2B1", "L2B2", "L2B3"),
			}, // unfolded leftovers on die 1; folded blocks mirror both dies
		}
	}
	return [2][]floorplan.Row{}
}

// FoldedInStyle reports whether a block is folded under the style.
func FoldedInStyle(style Style, name string) bool {
	if !style.Folded() {
		return false
	}
	for _, prefix := range FoldedBlockTypes {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}
