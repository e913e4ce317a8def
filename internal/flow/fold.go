package flow

import (
	"context"
	"fmt"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/netlist"
	"fold3d/internal/place"
)

// FoldAndImplement folds block b (per the fold options) and runs the 3D
// implementation under the flow's bonding style. b is modified in place.
// It is FoldAndImplementContext under context.Background().
func (f *Flow) FoldAndImplement(b *netlist.Block, fo core.FoldOptions, aspect float64) (*BlockResult, *core.FoldResult, error) {
	return f.FoldAndImplementContext(context.Background(), b, fo, aspect)
}

// FoldAndImplementContext is FoldAndImplement honoring ctx.
func (f *Flow) FoldAndImplementContext(ctx context.Context, b *netlist.Block, fo core.FoldOptions, aspect float64) (*BlockResult, *core.FoldResult, error) {
	fr, err := core.Fold(b, fo)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: folding %s: %w", b.Name, err)
	}
	br, err := f.ImplementBlockContext(ctx, b, aspect)
	if err != nil {
		return nil, nil, err
	}
	return br, fr, nil
}

// tsvPadAllowance is the per-die outline area reserved for intra-block TSV
// landing pads of a folded F2B block: pads also fragment placement rows, so
// the reserve is well beyond the raw pad area. F2F blocks reserve nothing.
func (f *Flow) tsvPadAllowance(b *netlist.Block) float64 {
	if f.Cfg.Bond != extract.F2B || !b.Is3D {
		return 0
	}
	tsvOpt := place.DefaultTSVPlanOptions(f.D.Cfg.Scale)
	cut := fold3DNetCount(b)
	pad := tsvOpt.DrawnPitch()
	return 1.6 * float64(cut) * pad * pad
}

// fold3DNetCount counts die-crossing signal nets of a folded block.
func fold3DNetCount(b *netlist.Block) int {
	n := 0
	for i := range b.Nets {
		if b.Nets[i].Kind == netlist.Signal && b.NetIs3D(&b.Nets[i]) {
			n++
		}
	}
	return n
}
