package flow

import (
	"context"
	"fmt"

	"fold3d/internal/cts"
	"fold3d/internal/extract"
	"fold3d/internal/netlist"
	"fold3d/internal/opt"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/power"
	"fold3d/internal/route"
)

// implState carries one block implementation through its stage plan. Every
// phase of the old monolithic ImplementBlock/finishBlock is a stage* method
// here; the methods are listed in a pipeline.Plan and invoked only by the
// pipeline executor (a fold3dlint ban row rejects direct stage-to-stage
// calls), so the order of the flow is explicit and the artifact cache can
// fingerprint exactly what each stage reads.
type implState struct {
	f      *Flow
	b      *netlist.Block
	aspect float64

	// Cross-stage engine state, created by the owning stage and consumed
	// only by the stages after it in the plan. placer is whichever
	// registered backend the flow's Cfg.Placer resolved to; the downstream
	// stages only ever re-legalize through it.
	placer  place.Backend
	o       *opt.Optimizer
	ctsRes  *cts.Result
	reps    int
	swapped int

	res *BlockResult
}

// blockPlan builds the stage chain of one block implementation. The stage
// bodies preserve the exact operation order of the pre-pipeline flow —
// identical RNG draws, identical float accumulation — so fingerprints and
// the EXPERIMENTS.md numbers are unchanged; only the orchestration moved.
//
// The plan input is the content hash of the block as handed to the flow
// (netlist, outline, ports with their chip-assigned budgets, fold state)
// plus the seed and scale; each stage keys the configuration slice it
// reads. Identical inputs therefore hit the cache across styles and
// experiments whenever the work truly is identical — an unfolded block
// whose floorplan geometry and port budgets agree — and miss whenever any
// input honestly differs.
func (st *implState) blockPlan() *pipeline.Plan {
	f, b := st.f, st.b
	in := pipeline.NewHasher()
	in.F64(f.D.Cfg.Scale)
	in.Uint(f.Cfg.Seed)
	in.F64(st.aspect)
	hashBlock(in, b)
	p := &pipeline.Plan{Name: "block:" + b.Name, Input: in.Sum()}

	p.Stages = append(p.Stages, pipeline.Stage{
		Name: "prepare",
		Key: func(h *pipeline.Hasher) {
			h.F64(f.Cfg.Util)
			h.F64(f.Cfg.BufferAllowance)
			h.F64(f.Cfg.MacroChannel)
			h.Int(int(f.Cfg.Bond))
		},
		Run: st.stagePrepare,
	}, pipeline.Stage{
		Name: "place",
		Key: func(h *pipeline.Hasher) {
			// place.Options is a flat value struct (no maps), so %#v is a
			// deterministic rendering of every field including Seed.
			h.Str(fmt.Sprintf("%#v", f.placeOptions()))
			// Cache-key discipline across backends: the default force
			// backend keeps the exact pre-registry key bytes, so artifacts
			// cached before the backend axis existed stay valid; every
			// other backend appends its registry name, so no two backends
			// can ever alias each other's place-stage artifacts — in this
			// process, on disk, or across fleet peers.
			if f.Cfg.Placer != place.DefaultBackend {
				h.Str("placer=" + f.Cfg.Placer)
			}
		},
		Run: st.stagePlace,
	})
	if b.Is3D {
		p.Stages = append(p.Stages, pipeline.Stage{
			Name: "vias",
			Key:  func(h *pipeline.Hasher) { h.Int(int(f.Cfg.Bond)) },
			Run:  st.stageVias,
		})
	}
	p.Stages = append(p.Stages, pipeline.Stage{
		Name: "extract",
		Key: func(h *pipeline.Hasher) {
			h.Int(int(f.Cfg.Bond))
			h.Bool(f.Cfg.TSVCoupling)
			h.Bool(f.Cfg.UseRSMT)
		},
		Run: st.stageExtract,
	})
	if f.Cfg.Thermal.Enable && b.Is3D && f.Cfg.Bond == extract.F2B {
		// Thermal-via planning needs the F2B TSV site grid and an extracted
		// netlist; it mutates geometry, so it must precede buffering. The
		// full thermal config is the stage key — any knob change honestly
		// misses the cache — and with Enable false the stage is simply not
		// listed, so thermal-off plans fingerprint byte-identically to
		// pre-thermal builds.
		p.Stages = append(p.Stages, pipeline.Stage{
			Name: "thermal-vias",
			Key:  func(h *pipeline.Hasher) { h.Str(fmt.Sprintf("%#v", f.Cfg.Thermal)) },
			Run:  st.stageThermalVias,
		})
	}
	p.Stages = append(p.Stages,
		pipeline.Stage{
			Name: "buffer",
			Key:  func(h *pipeline.Hasher) { h.Str(fmt.Sprintf("%#v", f.Cfg.Opt)) },
			Run:  st.stageBuffer,
		},
		pipeline.Stage{
			Name: "cts",
			Key:  func(h *pipeline.Hasher) { h.Str(fmt.Sprintf("%#v", f.Cfg.CTS)) },
			Run:  st.stageCTS,
		},
		pipeline.Stage{Name: "legalize", Run: st.stageLegalize},
		pipeline.Stage{Name: "timing-opt", Run: st.stageTimingOpt},
		pipeline.Stage{Name: "power-opt", Run: st.stagePowerOpt},
		pipeline.Stage{
			Name: "vth",
			Key:  func(h *pipeline.Hasher) { h.Bool(f.Cfg.UseHVT) },
			Run:  st.stageVth,
		},
		pipeline.Stage{
			Name: "final",
			Key:  func(h *pipeline.Hasher) { h.Bool(f.Cfg.Opt.FullRecompute) },
			Run:  st.stageFinal,
		},
	)
	return p
}

// stagePrepare sizes any unset outline with ShapeForBlock, packs each die's
// macros, fixes the routing-layer ceiling for F2F, and rescales the ports
// into the outline.
func (st *implState) stagePrepare(ctx context.Context) error {
	f, b := st.f, st.b
	dies := 1
	if b.Is3D {
		dies = 2
		// Under F2F bonding every metal layer is consumed by the block itself
		// (F2F vias sit on top of M9), so the block may route all nine layers
		// but becomes an over-the-block routing blockage at chip level (§6.1).
		if f.Cfg.Bond == extract.F2F {
			b.MaxRouteLayer = 9
		}
	}
	// An outline not already fixed by the chip floorplan gets the shape the
	// floorplan would have given it; both dies of a folded block share it.
	if b.Outline[0].Area() <= 0 || (b.Is3D && b.Outline[1].Area() <= 0) {
		out := f.ShapeForBlock(b, st.aspect)
		b.Outline[0] = out
		if b.Is3D {
			b.Outline[1] = out
		}
	}
	for d := 0; d < dies; d++ {
		if err := f.placeMacros(b, netlist.Die(d)); err != nil {
			return err
		}
	}
	normalizePorts(b)
	return nil
}

// stagePlace runs mixed-size global placement and legalization. The placer
// is kept for downstream legalization passes (it owns the row model).
func (st *implState) stagePlace(ctx context.Context) error {
	placer, err := st.f.getPlacer()
	if err != nil {
		return err
	}
	st.placer = placer
	if err := st.placer.Place(st.b); err != nil {
		if st.b.Is3D {
			return fmt.Errorf("flow: 3D placing %s: %v", st.b.Name, err)
		}
		return fmt.Errorf("flow: placing %s: %v", st.b.Name, err)
	}
	return nil
}

// stageVias inserts the intra-block 3D connections of a folded block:
//
//	F2B: plan TSV sites (outside macros) and re-legalize — pads claim
//	     placement area, so overlapping cells are evicted.
//	F2F: run the paper's F2F via placer (3D net routing over the merged
//	     dies, §5.1); F2F vias consume no silicon, so no re-legalization.
func (st *implState) stageVias(ctx context.Context) error {
	f, b := st.f, st.b
	switch f.Cfg.Bond {
	case extract.F2B:
		tsvOpt := place.DefaultTSVPlanOptions(f.D.Cfg.Scale)
		if err := place.PlanTSVs(b, tsvOpt); err != nil {
			return fmt.Errorf("flow: TSV planning %s: %v", b.Name, err)
		}
		if err := st.placer.LegalizeAll(b); err != nil {
			return fmt.Errorf("flow: post-TSV legalization of %s: %v", b.Name, err)
		}
	case extract.F2F:
		if _, err := route.PlaceF2FVias(b, route.DefaultOptions()); err != nil {
			return fmt.Errorf("flow: F2F via placement on %s: %v", b.Name, err)
		}
	}
	return nil
}

// stageExtract runs parasitic extraction over the placed netlist.
func (st *implState) stageExtract(ctx context.Context) error {
	return st.f.Ex.Extract(st.b)
}

// stageBuffer creates the optimizer with its area budget (per-die for
// folded blocks — a die overflows individually) and inserts data-path
// repeaters on long, overloaded or high-fanout nets.
func (st *implState) stageBuffer(ctx context.Context) error {
	f, b := st.f, st.b
	optCfg := f.Cfg.Opt
	if b.Is3D {
		optCfg.AreaBudgetDie = f.repeaterBudgetPerDie(b)
	} else {
		optCfg.AreaBudget = f.repeaterBudget(b)
	}
	st.o = f.getOptimizer(optCfg)

	reps, err := st.o.BufferLongNets(b)
	if err != nil {
		return fmt.Errorf("flow: buffering %s: %v", b.Name, err)
	}
	st.reps = reps
	return nil
}

// stageCTS synthesizes the clock tree; the measured skew becomes the STA
// uncertainty of every later timing run.
func (st *implState) stageCTS(ctx context.Context) error {
	f, b := st.f, st.b
	ctsRes, err := cts.Run(b, f.D.Lib, f.D.Scale, f.Cfg.CTS)
	if err != nil {
		return fmt.Errorf("flow: CTS on %s: %v", b.Name, err)
	}
	st.ctsRes = ctsRes
	st.o.Skew = ctsRes.SkewPS
	return nil
}

// stageLegalize legalizes the repeaters and clock buffers that were dropped
// at ideal locations, re-extracts, and invalidates the optimizer's cached
// timing (CTS and legalization edited the block outside its mark API).
func (st *implState) stageLegalize(ctx context.Context) error {
	f, b := st.f, st.b
	if err := st.placer.LegalizeAll(b); err != nil {
		return fmt.Errorf("flow: post-CTS legalization of %s: %v", b.Name, err)
	}
	if err := f.Ex.Extract(b); err != nil {
		return err
	}
	st.o.InvalidateTiming()
	return nil
}

// stageTimingOpt closes setup timing by upsizing and splitting.
func (st *implState) stageTimingOpt(ctx context.Context) error {
	b := st.b
	if _, err := st.o.FixTiming(b); err != nil {
		return fmt.Errorf("flow: timing opt on %s: %v", b.Name, err)
	}
	return nil
}

// stagePowerOpt recovers power from positive slack. Two-tier slack
// allocation: downsizing stops at its guard-banded floor (DownsizeMargin),
// which deliberately strands slack that the cheaper Vth swaps then convert
// to leakage savings down to the tighter SlackMargin — mirroring how
// sign-off flows stage sizing and multi-Vth optimization.
func (st *implState) stagePowerOpt(ctx context.Context) error {
	b := st.b
	if _, err := st.o.RecoverPower(b); err != nil {
		return fmt.Errorf("flow: power opt on %s: %v", b.Name, err)
	}
	return nil
}

// stageVth runs the dual-Vth pass (paper §6.2) when the style enables it.
func (st *implState) stageVth(ctx context.Context) error {
	f, b := st.f, st.b
	if !f.Cfg.UseHVT {
		return nil
	}
	swapped, err := st.o.SwapToHVT(b)
	if err != nil {
		return fmt.Errorf("flow: Vth opt on %s: %v", b.Name, err)
	}
	st.swapped = swapped
	return nil
}

// stageFinal runs the sign-off analysis and assembles the BlockResult. The
// optimizer passes flush extraction after every geometry change, so
// parasitics are already current here and the final timing runs through the
// incremental engine. FullRecompute mode replays the historical
// full-extract + from-scratch STA instead; both produce byte-identical
// results (the fingerprint-equivalence test pins this down).
func (st *implState) stageFinal(ctx context.Context) error {
	f, b := st.f, st.b
	if f.Cfg.Opt.FullRecompute {
		if err := f.Ex.Extract(b); err != nil {
			return err
		}
	}
	timing, err := st.o.Timing(b)
	if err != nil {
		return fmt.Errorf("flow: final STA on %s: %v", b.Name, err)
	}
	st.res = &BlockResult{
		Block: b,
		Stats: netlist.CollectStats(b, f.D.Scale.LongWireThreshold()),
		Power: power.Analyze(b, f.D.Scale),
		// The engine's report aliases its internal arrays; copy it so
		// recycling the optimizer for the next block cannot mutate this
		// block's sign-off numbers after the fact.
		Timing:            cloneTiming(timing),
		CTS:               st.ctsRes,
		RepeatersInserted: st.reps,
		HVTSwapped:        st.swapped,
	}
	return nil
}

// hashBlock mixes the complete pre-implementation state of b into h: the
// netlist (cells by master identity, macros, nets with connectivity and
// activity), the I/O ports with their chip-assigned positions and timing
// budgets, the outline, and the fold state. This is the honest input
// fingerprint of a block implementation: two blocks hash equal exactly when
// the flow would be handed indistinguishable work. Floats are mixed by bit
// pattern, never formatted.
func hashBlock(h *pipeline.Hasher, b *netlist.Block) {
	h.Str(b.Name)
	h.Int(int(b.Clock))
	h.Int(len(b.Cells))
	for i := range b.Cells {
		c := &b.Cells[i]
		h.Str(c.Name)
		h.Int(int(c.Master.Fam))
		h.Int(c.Master.Drive)
		h.Int(int(c.Master.Vth))
		h.F64(c.Pos.X)
		h.F64(c.Pos.Y)
		h.Int(int(c.Die))
		h.Bool(c.Fixed)
		h.Str(c.Group)
		h.Bool(c.IsClockBuf)
		h.F64(c.Activity)
	}
	h.Int(len(b.Macros))
	for i := range b.Macros {
		m := &b.Macros[i]
		h.Str(m.Name)
		h.Str(m.Model.Name)
		h.F64(m.Model.Width)
		h.F64(m.Model.Height)
		h.Int(m.Model.Bits)
		h.F64(m.Pos.X)
		h.F64(m.Pos.Y)
		h.Int(int(m.Die))
		h.Bool(m.Fixed)
		h.Str(m.Group)
		h.F64(m.Activity)
	}
	h.Int(len(b.Ports))
	for i := range b.Ports {
		p := &b.Ports[i]
		h.Str(p.Name)
		h.Int(int(p.Dir))
		h.F64(p.Pos.X)
		h.F64(p.Pos.Y)
		h.Int(int(p.Die))
		h.F64(p.CapfF)
		h.F64(p.Budget)
	}
	h.Int(len(b.Nets))
	for i := range b.Nets {
		n := &b.Nets[i]
		h.Str(n.Name)
		h.Int(int(n.Kind))
		hashPin(h, n.Driver)
		h.Int(len(n.Sinks))
		for _, s := range n.Sinks {
			hashPin(h, s)
		}
		h.F64(n.Activity)
		h.F64(n.RouteLen)
		h.Int(n.Layer)
		h.Int(n.Crossings)
		h.Int(len(n.Vias))
		for _, v := range n.Vias {
			h.F64(v.X)
			h.F64(v.Y)
		}
		h.F64(n.WireCapfF)
		h.F64(n.WireResOhm)
	}
	for d := 0; d < 2; d++ {
		h.F64(b.Outline[d].Lo.X)
		h.F64(b.Outline[d].Lo.Y)
		h.F64(b.Outline[d].Hi.X)
		h.F64(b.Outline[d].Hi.Y)
	}
	h.Bool(b.Is3D)
	h.Int(b.NumTSV)
	h.Int(b.NumF2F)
	h.Int(len(b.TSVPads))
	for _, r := range b.TSVPads {
		h.F64(r.Lo.X)
		h.F64(r.Lo.Y)
		h.F64(r.Hi.X)
		h.F64(r.Hi.Y)
	}
	h.Int(b.MaxRouteLayer)
}

func hashPin(h *pipeline.Hasher, r netlist.PinRef) {
	h.Int(int(r.Kind))
	h.Int(int(r.Idx))
	h.Int(int(r.Pin))
}
