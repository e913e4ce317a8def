package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/flow"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/power"
	"fold3d/internal/route"
	"fold3d/internal/sta"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
	"fold3d/internal/thermal"
)

// probeChip is the chip a traced run takes its engine probes from: one
// style of the workload's own design, built through the public flow API.
type probeChip struct {
	scale   float64
	seed    uint64
	placer  string
	thermal flow.ThermalConfig
	useHVT  bool
	style   t2.Style
	// cache is the run's artifact cache; a build the run already did
	// restores from it instead of recomputing.
	cache *pipeline.Cache
	// flowSpans asks runProbes to turn the build's flow.Progress events
	// into flow.* spans, timed from the start of the build.
	flowSpans bool
}

// staEditsPerBlock bounds the incremental-STA edits timed per probe block.
const staEditsPerBlock = 64

// runProbes builds the probe chip and times each engine from outside on
// clones of one implemented block per block type, adding the per-layer
// metrics to pl and one span per call to rec. With pc.flowSpans it returns
// the build's flow.* spans.
func runProbes(ctx context.Context, pc probeChip, rec *recorder, pl metrics) (*chipSpans, error) {
	var d *t2.Design
	genDur, err := rec.timed("t2.generate", nil, func() error {
		var err error
		d, err = t2.Generate(t2.Config{Scale: pc.scale, Seed: pc.seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	pl.set("t2.generate_ms", millis(genDur), "ms")

	// FM folding on clones of the generated (unimplemented) blocks the
	// style folds, before the build folds the originals in place.
	var foldDur time.Duration
	for _, name := range onePerType(d.Blocks) {
		if !t2.FoldedInStyle(pc.style, name) {
			continue
		}
		b := d.Blocks[name].Clone()
		fo := core.DefaultFoldOptions()
		fo.Seed = pc.seed
		dur, err := rec.timed("core.fold", map[string]any{"block": name}, func() error {
			_, err := core.Fold(b, fo)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core.Fold %s: %w", name, err)
		}
		foldDur += dur
	}
	pl.set("core.fold_ms", millis(foldDur), "ms")

	// At the floorplan event the blocks are folded, outlined and wired to
	// their ports but not yet implemented: clone the probe blocks there, as
	// the input the place stage sees.
	probes := onePerType(d.Blocks)
	placeReady := map[string]*netlist.Block{}
	fcfg := flow.Config{UseHVT: pc.useHVT, Placer: pc.placer, Thermal: pc.thermal, Workers: 2, Cache: pc.cache}
	var cs *chipSpans
	// The clones are taken inside the build, so a few milliseconds of
	// cloning land in the flow.implement span of a traced probe build.
	fcfg.Progress = func(p flow.Progress) {
		if cs != nil {
			cs.observe(p)
		}
		if p.Stage == flow.StageFloorplan {
			for _, name := range probes {
				placeReady[name] = d.Blocks[name].Clone()
			}
		}
	}
	start := time.Now()
	if pc.flowSpans {
		cs = newChipSpans(rec, 0, 0, start)
	}
	chip, err := flow.New(d, fcfg).BuildChipContext(ctx, pc.style)
	end := time.Now()
	rec.add(span{name: "flow.BuildChip", start: start, end: end, args: map[string]any{"style": pc.style.String()}})
	if err != nil {
		return nil, err
	}
	if cs != nil {
		cs.finish(end)
	}
	repeaters, hvt := 0, 0
	for _, br := range chip.Blocks {
		repeaters += br.RepeatersInserted
		hvt += br.HVTSwapped
	}
	pl.set("opt.repeaters", float64(repeaters), "count")
	pl.set("opt.hvt_swaps", float64(hvt), "count")
	pl.set("cells", float64(chip.Stats.NumCells), "count")

	bond := extract.F2B
	if pc.style == t2.StyleFoldF2F {
		bond = extract.F2F
	}
	var t probeTimes
	for _, name := range probes {
		impl := chip.Blocks[name].Block
		if err := t.block(rec, d, bond, placeReadyFrom(placeReady[name], impl), impl); err != nil {
			return nil, fmt.Errorf("probing %s: %w", name, err)
		}
	}
	t.report(pl)
	// The incremental STA path must not allocate in steady state (a gate
	// since the incremental engine landed).
	if t.staAllocs != 0 {
		return nil, fmt.Errorf("incremental STA allocated %d times over %d edits, want 0", t.staAllocs, t.staEdits)
	}
	return cs, nil
}

// probeTimes accumulates engine times over the probe blocks.
type probeTimes struct {
	clone, force, legalize, analytical     time.Duration
	staFull, staIncr, extract, vias, power time.Duration
	solve, resolve                         time.Duration
	staEdits                               int
	staAllocs, relaxations                 uint64
}

func (t *probeTimes) report(pl metrics) {
	pl.set("netlist.clone_ms", millis(t.clone), "ms")
	pl.set("place.force_ms", millis(t.force), "ms")
	pl.set("place.legalize_ms", millis(t.legalize), "ms")
	pl.set("place.analytical_ms", millis(t.analytical), "ms")
	pl.set("sta.full_ms", millis(t.staFull), "ms")
	pl.set("sta.incr_us", micros(t.staIncr)/float64(t.staEdits), "us")
	pl.set("sta.incr_allocs", float64(t.staAllocs)/float64(t.staEdits), "count")
	pl.set("extract.extract_ms", millis(t.extract), "ms")
	pl.set("route.f2f_vias_ms", millis(t.vias), "ms")
	pl.set("power.analyze_ms", millis(t.power), "ms")
	pl.set("thermal.solve_ms", millis(t.solve), "ms")
	pl.set("thermal.resolve_ms", millis(t.resolve), "ms")
	pl.set("thermal.relaxations", float64(t.relaxations), "count")
}

// block times every engine on fresh clones of one block, so no probe sees
// another's edits and the build's own result stays untouched: global
// placement on the block as the place stage received it (ready), everything
// else on the implemented block (impl).
func (t *probeTimes) block(rec *recorder, d *t2.Design, bond extract.Bonding, ready, impl *netlist.Block) error {
	args := map[string]any{"block": impl.Name}
	do := func(name string, acc *time.Duration, fn func() error) error {
		dur, err := rec.timed(name, args, fn)
		*acc += dur
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var b *netlist.Block

	placeOpt := flowPlaceOptions()
	if err := do("netlist.clone", &t.clone, func() error { b = impl.Clone(); return nil }); err != nil {
		return err
	}
	force, err := place.NewBackend("force", placeOpt)
	if err != nil {
		return err
	}
	b = ready.Clone()
	if err := do("place.force", &t.force, func() error { return force.Place(b) }); err != nil {
		return err
	}
	// Re-legalize the placed block: the pass the flow repeats after CTS
	// and repeater insertion, here over cells already near legal sites.
	if err := do("place.legalize", &t.legalize, func() error { return force.LegalizeAll(b) }); err != nil {
		return err
	}
	analytical, err := place.NewBackend("analytical", placeOpt)
	if err != nil {
		return err
	}
	b = ready.Clone()
	if err := do("place.analytical", &t.analytical, func() error { return analytical.Place(b) }); err != nil {
		return err
	}

	b = impl.Clone()
	ex := extract.New(d.Lib, d.Scale, bond)
	if err := do("extract.extract", &t.extract, func() error { return ex.Extract(b) }); err != nil {
		return err
	}
	if err := t.sta(rec, d.Lib, b); err != nil {
		return err
	}
	if err := do("power.analyze", &t.power, func() error { power.Analyze(b, d.Scale); return nil }); err != nil {
		return err
	}
	if !b.Is3D {
		return nil
	}

	eng := thermal.NewEngine()
	if err := do("thermal.solve", &t.solve, func() error {
		if _, err := eng.LoadBlock(b, d.Scale, bond, thermal.DefaultParams()); err != nil {
			return err
		}
		_, err := eng.Solve()
		return err
	}); err != nil {
		return err
	}
	// A local edit: one milliwatt more at the hottest tile, re-solved
	// incrementally.
	die, ix, iy, _ := eng.PeakTile()
	eng.AddPower(die, ix, iy, 1e-3)
	if err := do("thermal.resolve", &t.resolve, func() error { _, err := eng.Resolve(); return err }); err != nil {
		return err
	}
	t.relaxations += uint64(eng.Relaxations())

	b = impl.Clone()
	return do("route.f2f_vias", &t.vias, func() error {
		_, err := route.PlaceF2FVias(b, route.DefaultOptions())
		return err
	})
}

// sta times one full analysis, then up to staEditsPerBlock Vth swaps each
// followed by MarkCellDirty and an incremental Analyze, and swaps back the
// same way. The edit pass runs twice; only the second is timed and its
// heap allocations counted, so scratch growth of the first pass is not
// charged to the steady state the optimizer loop lives in.
func (t *probeTimes) sta(rec *recorder, lib *tech.Library, b *netlist.Block) error {
	eng := sta.NewEngine(b)
	full, err := rec.timed("sta.full", map[string]any{"block": b.Name}, func() error {
		_, err := eng.Analyze(0)
		return err
	})
	if err != nil {
		return err
	}
	t.staFull += full
	type edit struct {
		ci       int32
		from, to *tech.Cell
	}
	var edits []edit
	stride := len(b.Cells)/staEditsPerBlock + 1
	for ci := 0; ci < len(b.Cells) && len(edits) < staEditsPerBlock; ci += stride {
		m := b.Cells[ci].Master
		if m == nil || m.Fam.IsSequential() {
			continue
		}
		vth := tech.HVT
		if m.Vth == tech.HVT {
			vth = tech.RVT
		}
		to, err := lib.SwapVth(m, vth)
		if err != nil {
			continue
		}
		edits = append(edits, edit{int32(ci), m, to})
	}
	if len(edits) == 0 {
		return fmt.Errorf("no swappable cells in %s", b.Name)
	}
	pass := func() error {
		for _, e := range edits {
			for _, m := range []*tech.Cell{e.to, e.from} {
				b.Cells[e.ci].Master = m
				eng.MarkCellDirty(e.ci)
				if _, err := eng.Analyze(0); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = pass()
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rec.add(span{name: "sta.incremental", start: start, end: end, args: map[string]any{"block": b.Name, "edits": 2 * len(edits)}})
	t.staIncr += end.Sub(start)
	t.staEdits += 2 * len(edits)
	t.staAllocs += after.Mallocs - before.Mallocs
	return nil
}

// flowPlaceOptions are the placer options a default flow hands its place
// stage: the sizing utilization plus legalization headroom, and the flow
// seed.
func flowPlaceOptions() place.Options {
	fc := flow.DefaultConfig()
	po := fc.Place
	po.TargetUtil = min(fc.Util+0.12, 0.92)
	po.Seed = fc.Seed
	return po
}

// placeReadyFrom completes a block cloned at the floorplan event with what
// the prepare stage adds before placement — the final outlines, the packed
// macros and the normalized ports, copied from the implemented block — so
// it is exactly the place stage's input. Implementation only appends cells
// and nets, so the first macros and ports correspond one to one.
func placeReadyFrom(ready, impl *netlist.Block) *netlist.Block {
	ready.Outline = impl.Outline
	ready.MaxRouteLayer = impl.MaxRouteLayer
	copy(ready.Macros, impl.Macros)
	copy(ready.Ports, impl.Ports)
	return ready
}

// onePerType picks the first block (in name order) of each block type —
// the name with its copy index stripped — so probes cover every kind of
// block once.
func onePerType(blocks map[string]*netlist.Block) []string {
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := map[string]bool{}
	var out []string
	for _, name := range names {
		ty := strings.TrimRight(name, "0123456789")
		if !seen[ty] {
			seen[ty] = true
			out = append(out, name)
		}
	}
	return out
}
