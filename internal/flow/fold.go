package flow

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
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
	fr, err := f.fold(ctx, b, fo)
	if err != nil {
		return nil, nil, err
	}
	br, err := f.ImplementBlockContext(ctx, b, aspect)
	if err != nil {
		return nil, nil, err
	}
	return br, fr, nil
}

// fold folds b in place under fo as a one-stage plan, the only way the
// flow folds. With Cfg.Cache set, a block folded before under the same
// options restores its die assignment instead of running FM again.
func (f *Flow) fold(ctx context.Context, b *netlist.Block, fo core.FoldOptions) (*core.FoldResult, error) {
	st := &foldState{b: b, fo: fo}
	ex := pipeline.Executor{Cache: f.Cfg.Cache}
	var spec *pipeline.ArtifactSpec
	if f.Cfg.Cache != nil {
		spec = st.artifactSpec()
	}
	if err := ex.Run(ctx, st.plan(), spec); err != nil {
		return nil, err
	}
	return st.res, nil
}

// foldState carries one fold through its plan.
type foldState struct {
	b   *netlist.Block
	fo  core.FoldOptions
	res *core.FoldResult
}

// plan is the fold's stage chain. The input is the content hash of the
// block as handed to the fold, which covers everything core.Fold reads
// (dies, groups, master identity, macro models, nets, Is3D); the stage keys
// every FoldOptions field. GroupDie is hashed in sorted key order so map
// insertion order cannot change the key; FoldGroups keeps list order,
// because each group's FM seed depends on its index.
func (st *foldState) plan() *pipeline.Plan {
	in := pipeline.NewHasher()
	hashBlock(in, st.b)
	fo := st.fo
	return &pipeline.Plan{Name: "fold:" + st.b.Name, Input: in.Sum(), Stages: []pipeline.Stage{{
		Name: "fold",
		Key: func(h *pipeline.Hasher) {
			h.Int(int(fo.Mode))
			groups := make([]string, 0, len(fo.GroupDie))
			for g := range fo.GroupDie {
				groups = append(groups, g)
			}
			sort.Strings(groups)
			h.Int(len(groups))
			for _, g := range groups {
				h.Str(g)
				h.Int(fo.GroupDie[g])
			}
			h.Int(len(fo.FoldGroups))
			for _, g := range fo.FoldGroups {
				h.Str(g)
			}
			h.F64(fo.BalanceTol)
			h.Int(fo.InflateCutTo)
			h.Uint(fo.Seed)
		},
		Run: st.stageFold,
	}}}
}

// stageFold partitions the block with core.Fold.
func (st *foldState) stageFold(context.Context) error {
	res, err := core.Fold(st.b, st.fo)
	if err != nil {
		return fmt.Errorf("flow: folding %s: %w", st.b.Name, err)
	}
	st.res = res
	return nil
}

// foldArtifact is the cached outcome of one fold: the die of every cell,
// macro and port in index order, and the fold report. It has no codec, so
// it lives in the memory tier only.
type foldArtifact struct {
	cells, macros, ports []netlist.Die
	res                  core.FoldResult
}

// CloneArtifact deep-copies the die slices.
func (a *foldArtifact) CloneArtifact() pipeline.Artifact {
	return &foldArtifact{
		cells:  slices.Clone(a.cells),
		macros: slices.Clone(a.macros),
		ports:  slices.Clone(a.ports),
		res:    a.res,
	}
}

// ApproxBytes is the die slices plus a fixed overhead.
func (a *foldArtifact) ApproxBytes() int64 {
	return int64(len(a.cells)+len(a.macros)+len(a.ports))*8 + 128
}

// artifactSpec captures the dies core.Fold wrote, and restores them — the
// dies and Is3D are all core.Fold writes, so a restored block is identical
// to a folded one. An artifact whose lengths do not fit the block is
// rejected, and the executor folds afresh.
func (st *foldState) artifactSpec() *pipeline.ArtifactSpec {
	b := st.b
	return &pipeline.ArtifactSpec{
		Capture: func() (pipeline.Artifact, error) {
			a := &foldArtifact{
				cells:  make([]netlist.Die, len(b.Cells)),
				macros: make([]netlist.Die, len(b.Macros)),
				ports:  make([]netlist.Die, len(b.Ports)),
				res:    *st.res,
			}
			for i := range b.Cells {
				a.cells[i] = b.Cells[i].Die
			}
			for i := range b.Macros {
				a.macros[i] = b.Macros[i].Die
			}
			for i := range b.Ports {
				a.ports[i] = b.Ports[i].Die
			}
			return a, nil
		},
		Restore: func(art pipeline.Artifact) error {
			a, ok := art.(*foldArtifact)
			if !ok {
				return fmt.Errorf("flow: cache returned %T, want *flow.foldArtifact", art)
			}
			if len(a.cells) != len(b.Cells) || len(a.macros) != len(b.Macros) || len(a.ports) != len(b.Ports) {
				return fmt.Errorf("flow: cached fold of %s does not fit the block", b.Name)
			}
			for i := range b.Cells {
				b.Cells[i].Die = a.cells[i]
			}
			for i := range b.Macros {
				b.Macros[i].Die = a.macros[i]
			}
			for i := range b.Ports {
				b.Ports[i].Die = a.ports[i]
			}
			b.Is3D = true
			st.res = &a.res
			return nil
		},
	}
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
