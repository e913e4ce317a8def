package exp

import (
	"context"
	"fmt"
	"strings"

	"fold3d/internal/core"
	"fold3d/internal/designio"
	"fold3d/internal/extract"
	"fold3d/internal/tech"
)

// Figure4Result exercises the paper's §5.1 file flow (Figure 4): run the 3D
// placer under an ideal interconnect, then emit the "2D-like 3D design
// files" — a merged Verilog netlist and DEF with _die_top/_die_bot suffixed
// masters, a merged LEF carrying both dies' metal stacks plus the F2F via
// cut layer, and the routing netlist with every 2D net tied to ground.
type Figure4Result struct {
	Block string
	// The generated artifacts.
	Verilog, DEF, LEF, Nets3D string
	// Nets3DCount is how many die-crossing nets survive for routing.
	Nets3DCount int
}

// Figure4 produces the merged two-die design files for a folded L2T.
func Figure4(ctx context.Context, cfg Config) (*Figure4Result, error) {
	fo := core.DefaultFoldOptions()
	fo.Seed = cfg.Seed + 17
	rs, err := implementBlock(ctx, cfg, "L2T0", blockRun{edit: bonded(extract.F2F), fold: &fo})
	if err != nil {
		return nil, err
	}
	b := rs[0].Block

	res := &Figure4Result{Block: b.Name}
	var sb strings.Builder
	if err := designio.WriteVerilog(&sb, b, true); err != nil {
		return nil, err
	}
	res.Verilog = sb.String()
	sb.Reset()
	if err := designio.WriteDEF(&sb, b, -1, true); err != nil {
		return nil, err
	}
	res.DEF = sb.String()
	sb.Reset()
	if err := designio.WriteLEF(&sb, tech.NewLibrary(), true); err != nil {
		return nil, err
	}
	res.LEF = sb.String()
	sb.Reset()
	n3d, err := designio.Write3DNetsOnly(&sb, b)
	if err != nil {
		return nil, err
	}
	res.Nets3D = sb.String()
	res.Nets3DCount = n3d
	return res, nil
}

// String renders the merged-netlist handoff summary.
func (r *Figure4Result) String() string {
	return fmt.Sprintf(`== Figure 4: the "2D-like 3D design files" of the F2F via flow (%s) ==
merged Verilog: %5d bytes (_die_top/_die_bot suffixed masters)
merged DEF:     %5d bytes (both dies' components in one flat design)
merged LEF:     %5d bytes (both metal stacks + the F2FVIA cut layer)
routing netlist: %d 3D nets kept, 2D nets tied to ground`,
		r.Block, len(r.Verilog), len(r.DEF), len(r.LEF), r.Nets3DCount)
}

// files records the merged-view design files.
func (r *Figure4Result) files(res *Result) {
	res.addFile("fig4-merged.v", r.Verilog)
	res.addFile("fig4-merged.def", r.DEF)
	res.addFile("fig4-merged.lef", r.LEF)
	res.addFile("fig4-nets3d.txt", r.Nets3D)
}
