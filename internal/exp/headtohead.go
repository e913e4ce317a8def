package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"fold3d/internal/flow"
	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// HeadToHeadRow is one (style, backend) measurement of the backend
// comparison: the placement objective (summed block HPWL), the paper-
// equivalent 3D via count, total power, and the power delta against the
// force backend on the same style.
type HeadToHeadRow struct {
	Style   t2.Style
	Backend string
	// HPWLm is the summed half-perimeter wirelength of every block's
	// signal nets, in meters.
	HPWLm float64
	// Vias3D is the paper-equivalent 3D via count (TSVs or F2F vias).
	Vias3D int
	// PowerW is the chip total power in watts.
	PowerW float64
	// PowerDeltaPct is the power difference against the force backend on
	// the same style (zero for the force rows themselves).
	PowerDeltaPct float64
}

// HeadToHeadResult is the standardized backend comparison: every registered
// placement backend over all five bonding styles, one row per pair. Rows is
// deterministic (and part of the result fingerprint); Elapsed carries the
// wall-clock of each run and is reported only through the volatile channel.
type HeadToHeadResult struct {
	Rows []HeadToHeadRow
	// Elapsed holds one wall-clock duration per row (design generation
	// plus chip build), same order as Rows. It never participates in
	// fingerprints.
	Elapsed []time.Duration
}

// headToHeadStyles is the full style axis of the comparison — the paper's
// five chip styles, in Figure 8 order.
var headToHeadStyles = []t2.Style{
	t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore, t2.StyleFoldF2B, t2.StyleFoldF2F,
}

// HeadToHead builds the full chip under every registered placement backend
// and every bonding style and compares HPWL, 3D-via count and power
// head-to-head. The cache-key discipline keeps the runs honest: backends
// never restore each other's artifacts, so each cell of the matrix is that
// backend's own work (or its own earlier work, warm).
func HeadToHead(ctx context.Context, cfg Config) (*HeadToHeadResult, error) {
	res := &HeadToHeadResult{}
	// Force first (the reference column), then the rest in registry order.
	backends := place.BackendNames()
	ref := make(map[t2.Style]float64, len(headToHeadStyles))
	for _, backend := range backends {
		for _, style := range headToHeadStyles {
			//lint:ignore determinism wall-clock here feeds only the volatile Elapsed channel, which is printed but excluded from every result fingerprint
			t0 := time.Now()
			r, err := buildChip(ctx, cfg, style, func(fc *flow.Config) { fc.Placer = backend })
			if err != nil {
				return nil, err
			}
			//lint:ignore determinism wall-clock here feeds only the volatile Elapsed channel, which is printed but excluded from every result fingerprint
			elapsed := time.Since(t0)
			row := HeadToHeadRow{
				Style:   style,
				Backend: backend,
				HPWLm:   chipHPWLm(r),
				Vias3D:  r.Stats.ViasPaperEquiv,
				PowerW:  r.Power.TotalMW / 1e3,
			}
			if backend == place.DefaultBackend {
				ref[style] = row.PowerW
			} else {
				row.PowerDeltaPct = pct(row.PowerW, ref[style])
			}
			res.Rows = append(res.Rows, row)
			res.Elapsed = append(res.Elapsed, elapsed)
		}
	}
	//lint:ignore nondetflow Elapsed is display-only wall-clock that feeds the volatile channel, which is excluded from every result fingerprint
	return res, nil
}

// chipHPWLm sums the per-block signal-net HPWL in sorted block-name order
// (float accumulation order must not depend on map iteration) and converts
// to meters.
func chipHPWLm(r *flow.ChipResult) float64 {
	names := make([]string, 0, len(r.Blocks))
	for name := range r.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	var um float64
	for _, name := range names {
		um += place.HPWL(r.Blocks[name].Block)
	}
	return um / 1e6
}

// String renders the deterministic comparison table.
func (r *HeadToHeadResult) String() string {
	var sb strings.Builder
	sb.WriteString("== Head-to-head: placement backends across all five styles ==\n")
	sb.WriteString("style        backend      HPWL(m)    3D vias    power(W)    vs force\n")
	for _, row := range r.Rows {
		delta := "      ref"
		if row.Backend != place.DefaultBackend {
			delta = fmt.Sprintf("%+8.1f%%", row.PowerDeltaPct)
		}
		fmt.Fprintf(&sb, "%-12s %-12s %8.3f %10d %11.3f %s\n",
			row.Style, row.Backend, row.HPWLm, row.Vias3D, row.PowerW, delta)
	}
	sb.WriteString("note: backends share the legalizer and supply map; HPWL is the placement objective, power the paper's metric\n")
	return sb.String()
}

// VolatileString renders the wall-clock lines of the comparison — display
// data only, excluded from result fingerprints by construction (it rides
// the Result.Volatile channel).
func (r *HeadToHeadResult) VolatileString() string {
	var sb strings.Builder
	sb.WriteString("wall-clock per run (volatile, excluded from fingerprints):\n")
	for i, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-12s %-12s %s\n", row.Style, row.Backend, r.Elapsed[i].Round(time.Millisecond))
	}
	return sb.String()
}
