// Package exp is the experiment harness: one generator per table and figure
// of the paper's evaluation, each returning a structured result plus a
// formatted report that prints the same rows/series the paper does.
// EXPERIMENTS.md records paper-vs-measured for every entry.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fold3d/internal/core"
	"fold3d/internal/errs"
	"fold3d/internal/extract"
	"fold3d/internal/floorplan"
	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
)

// Config parameterizes every experiment.
type Config struct {
	// Scale is the netlist scale factor (DESIGN.md §6). Default 1000.
	Scale float64
	// Seed drives all randomness; experiments are bit-reproducible.
	Seed uint64
	// Workers bounds intra-chip parallelism of every flow the experiment
	// runs (0 = one worker per CPU, 1 = strictly sequential). Results are
	// byte-identical at any setting; see flow.Config.Workers.
	Workers int
	// Placer selects the placement backend every flow runs: "force" (the
	// paper's placer, the default), "analytical" (the Nesterov bistratal
	// placer), or any future registered backend. Every experiment gains
	// this axis — the same table under a different Placer is a different,
	// comparable measurement. Empty selects place.DefaultBackend. Unknown
	// names fail Validate with an errs.ErrBadOptions-wrapped error naming
	// the valid backends.
	Placer string
	// Progress, when non-nil, receives live flow status events. Callbacks
	// are serialized but their order is scheduler-dependent; results are
	// unaffected.
	Progress func(flow.Progress)
	// Cache, when non-nil, is the shared block-artifact cache handed to
	// every flow the experiments run, so identical block implementations —
	// the same style rebuilt by another experiment, or a style-invariant
	// block — are computed once and restored byte-identically thereafter.
	// RunAll fills this with a fresh in-memory cache when nil; set it
	// explicitly to share across RunAll calls or to enable the disk spill.
	Cache *pipeline.Cache
	// Thermal is the in-loop thermal planning configuration handed to every
	// flow the experiments run (flow.Config.Thermal), and the knob set the
	// thermal experiment family reads for its temperature budget, via budget
	// and hotspot-aware-selection weight. The zero value registers no
	// thermal stage and keeps every fingerprint byte-identical to a
	// thermal-unaware run.
	Thermal flow.ThermalConfig
}

// DefaultCacheBudget is the in-memory artifact-cache bound (bytes) RunAll
// applies to the cache it creates when Config.Cache is nil — the
// memory-budgeted execution mode: old artifacts are evicted past this size
// so a large-scale build's cache cannot grow with the run length. Evictions
// only force recomputation (or a disk-tier read); results stay
// fingerprint-identical. Pass an explicitly configured Cache to choose a
// different bound or run unbounded.
const DefaultCacheBudget int64 = 512 << 20

// DefaultConfig returns the scale and seed the committed EXPERIMENTS.md
// numbers were produced with.
func DefaultConfig() Config { return Config{Scale: 1000, Seed: 42} }

// Validate checks the caller-controlled configuration fields before any
// work starts. Failures wrap errs.ErrBadRequest (and errs.ErrBadOptions,
// the historical sentinel for out-of-range values), so transport layers
// can classify them with errors.Is and map them to client errors.
func (c Config) Validate() error {
	// Negated range form so NaN (every comparison false) is rejected too.
	if c.Scale != 0 && !(c.Scale >= 1 && c.Scale <= t2.MaxScale) {
		return fmt.Errorf("exp: %w: %w: scale must be in [1, %g] (0 selects the default), got %g",
			errs.ErrBadRequest, errs.ErrBadOptions, float64(t2.MaxScale), c.Scale)
	}
	if c.Workers < 0 {
		return fmt.Errorf("exp: %w: %w: workers must be >= 0 (0 selects one per CPU), got %d",
			errs.ErrBadRequest, errs.ErrBadOptions, c.Workers)
	}
	// place.ValidateBackend already wraps errs.ErrBadRequest and
	// errs.ErrBadOptions and names the valid backends; keep that text.
	if err := place.ValidateBackend(c.Placer); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	// flow.ThermalConfig.Validate already wraps errs.ErrBadRequest and
	// errs.ErrBadOptions naming the field; keep that text too.
	if err := c.Thermal.Validate(); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	return nil
}

// ValidateNames checks that every name is a registered experiment. The
// first unknown name is reported wrapping both errs.ErrBadRequest and
// errs.ErrUnknownExperiment, so callers can classify the failure at either
// granularity. A nil or empty list (meaning "all experiments") is valid.
func ValidateNames(names []string) error {
	for _, name := range names {
		if _, ok := ByName(name); !ok {
			return fmt.Errorf("exp: %w: %w: no experiment %q",
				errs.ErrBadRequest, errs.ErrUnknownExperiment, name)
		}
	}
	return nil
}

// flowCfg returns the flow defaults carrying the experiment-level
// parallelism and progress settings.
func (c Config) flowCfg() flow.Config {
	fc := flow.DefaultConfig()
	fc.Placer = c.Placer
	if fc.Placer == "" {
		fc.Placer = place.DefaultBackend
	}
	fc.Workers = c.Workers
	fc.Progress = c.Progress
	fc.Cache = c.Cache
	fc.Thermal = c.Thermal
	return fc
}

func (c Config) t2cfg(only ...string) t2.Config {
	if c.Scale == 0 {
		c = DefaultConfig()
	}
	return t2.Config{Scale: c.Scale, Seed: c.Seed, Only: only}
}

// pct returns the percent difference of a versus the reference b.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// blockWithPorts generates the named blocks and attaches their chip-level
// ports using the 2D floorplan geometry (virtual partners for absent
// blocks), so standalone block experiments see the same boundary pulls as
// the full chip — the effect behind the paper's fragmented 2D CCX (§4.3).
func blockWithPorts(cfg Config, names ...string) (*t2.Design, *flow.Flow, error) {
	d, err := t2.Generate(cfg.t2cfg(names...))
	if err != nil {
		return nil, nil, err
	}
	fl := flow.New(d, cfg.flowCfg())
	shapes := make(map[string]floorplan.Shape, len(d.Specs))
	for name, spec := range d.Specs {
		w, h := fl.EstimateShape(spec, 1)
		shapes[name] = floorplan.Shape{Name: name, W: w, H: h}
	}
	fp, err := floorplan.RowPlan(shapes, t2.Rows(t2.Style2D), 4)
	if err != nil {
		return nil, nil, err
	}
	chipNets, err := floorplan.AssignPorts(d.Blocks, fp, d.DrawnBundles())
	if err != nil {
		return nil, nil, err
	}
	if err := d.ConnectPorts(chipNets); err != nil {
		return nil, nil, err
	}
	return d, fl, nil
}

// Row is one generic metric row of a comparison table.
type Row struct {
	Metric string
	Values []float64
	// Diffs holds percent differences against the first value (one per
	// additional column); NaN-free, zero when absent.
	Diffs []float64
	// Unit annotates the metric.
	Unit string
}

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Add appends a metric row, computing diffs against the first column.
func (t *Table) Add(metric, unit string, values ...float64) {
	r := Row{Metric: metric, Unit: unit, Values: values}
	for _, v := range values[1:] {
		r.Diffs = append(r.Diffs, pct(v, values[0]))
	}
	t.Rows = append(t.Rows, r)
}

// Get returns the values of a metric row.
func (t *Table) Get(metric string) ([]float64, bool) {
	for _, r := range t.Rows {
		if r.Metric == metric {
			return r.Values, true
		}
	}
	return nil, false
}

// Diff returns the percent difference of column col (1-based among the
// non-reference columns) for a metric; col < 1 names the reference column
// and reports false.
func (t *Table) Diff(metric string, col int) (float64, bool) {
	for _, r := range t.Rows {
		if r.Metric == metric && col >= 1 && col-1 < len(r.Diffs) {
			return r.Diffs[col-1], true
		}
	}
	return 0, false
}

// String renders the table with its title, header and aligned rows.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	fmt.Fprintf(&sb, "%-24s", "metric")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, " %16s", c)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-24s", r.Metric+" "+r.Unit)
		for i, v := range r.Values {
			if i == 0 {
				fmt.Fprintf(&sb, " %16.3f", v)
			} else {
				fmt.Fprintf(&sb, " %8.3f(%+.1f%%)", v, r.Diffs[i-1])
			}
		}
		sb.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Table1 prints the 3D interconnect settings (paper Table 1) straight from
// the technology models.
func Table1() *Table {
	lib := tech.NewLibrary()
	t := &Table{
		Title:   "Table 1: 3D interconnect settings",
		Columns: []string{"TSV", "F2F via"},
	}
	t.Add("diameter", "um", lib.TSV.Diameter, lib.F2F.Diameter)
	t.Add("height", "um", lib.TSV.Height, lib.F2F.Height)
	t.Add("pitch", "um", lib.TSV.Pitch, lib.F2F.Pitch)
	t.Add("R", "Ohm", lib.TSV.ROhm, lib.F2F.ROhm)
	t.Add("C", "fF", lib.TSV.CfF, lib.F2F.CfF)
	return t
}

// chipTable converts chip results into a paper-style comparison table.
func chipTable(title string, cols []string, rs []*flow.ChipResult) *Table {
	t := &Table{Title: title, Columns: cols}
	vals := func(f func(*flow.ChipResult) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	t.Add("footprint", "mm2", vals(func(r *flow.ChipResult) float64 { return r.Stats.FootprintMM2 })...)
	t.Add("cells", "x1e3", vals(func(r *flow.ChipResult) float64 { return float64(r.Stats.NumCells) / 1e3 })...)
	t.Add("buffers", "x1e3", vals(func(r *flow.ChipResult) float64 { return float64(r.Stats.NumBuffers) / 1e3 })...)
	t.Add("wirelength", "m", vals(func(r *flow.ChipResult) float64 { return r.Stats.WirelengthM })...)
	t.Add("total power", "W", vals(func(r *flow.ChipResult) float64 { return r.Power.TotalMW / 1e3 })...)
	t.Add("cell power", "W", vals(func(r *flow.ChipResult) float64 { return r.Power.CellMW / 1e3 })...)
	t.Add("net power", "W", vals(func(r *flow.ChipResult) float64 { return r.Power.NetMW / 1e3 })...)
	t.Add("leakage power", "W", vals(func(r *flow.ChipResult) float64 { return r.Power.LeakageMW / 1e3 })...)
	t.Add("HVT fraction", "%", vals(func(r *flow.ChipResult) float64 {
		if r.Stats.NumCells == 0 {
			return 0
		}
		return 100 * float64(r.Stats.NumHVT) / float64(r.Stats.NumCells)
	})...)
	t.Add("3D vias (paper-eq)", "", vals(func(r *flow.ChipResult) float64 { return float64(r.Stats.ViasPaperEquiv) })...)
	return t
}

// Table2 reproduces the 2D vs 3D block-level comparison (paper Table 2):
// all three full-chip styles at 500MHz with the RVT-only library.
func Table2(ctx context.Context, cfg Config) (*Table, error) {
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore}
	var rs []*flow.ChipResult
	for _, st := range styles {
		d, err := t2.Generate(cfg.t2cfg())
		if err != nil {
			return nil, err
		}
		fl := flow.New(d, cfg.flowCfg())
		r, err := fl.BuildChipContext(ctx, st)
		if err != nil {
			return nil, fmt.Errorf("exp: table2 %s: %v", st, err)
		}
		rs = append(rs, r)
	}
	t := chipTable("Table 2: 2D vs 3D block-level designs (RVT, 500MHz)",
		[]string{"2D", "core/cache", "core/core"}, rs)
	t.Notes = append(t.Notes, "paper: footprint -46.0%, buffers -16.3/-15.2%, WL -5.0/-5.4%, power -10.3/-9.1%")
	return t, nil
}

// Table3Row is one block profile of the folding-candidate table.
type Table3Row struct {
	Block           string
	TotalPowerPct   float64
	NetPowerPct     float64
	LongWires       int
	Clock           string
	Copies          int
	FoldedInPaper   bool
	PassAllCriteria bool
}

// Table3 reproduces the folding-candidate selection profile (paper Table 3)
// from the implemented 2D design, and runs the §4.1 criteria over it.
func Table3(ctx context.Context, cfg Config) ([]Table3Row, string, error) {
	d, err := t2.Generate(cfg.t2cfg())
	if err != nil {
		return nil, "", err
	}
	fl := flow.New(d, cfg.flowCfg())
	r, err := fl.BuildChipContext(ctx, t2.Style2D)
	if err != nil {
		return nil, "", err
	}

	// One profile per block type (averaging copies like the paper).
	type acc struct {
		total, net float64
		long       int
		n          int
		clock      tech.ClockDomain
	}
	byType := map[string]*acc{}
	typeOf := func(name string) string {
		for _, p := range []string{"SPC", "L2D", "L2T", "L2B", "MCU"} {
			if strings.HasPrefix(name, p) {
				return p
			}
		}
		return name
	}
	// Sum in sorted block order: float += over map iteration order would
	// vary the totals' last bits run to run.
	blockNames := make([]string, 0, len(r.Blocks))
	for name := range r.Blocks {
		blockNames = append(blockNames, name)
	}
	sort.Strings(blockNames)
	var system float64
	for _, name := range blockNames {
		br := r.Blocks[name]
		ty := typeOf(name)
		a := byType[ty]
		if a == nil {
			a = &acc{clock: d.Specs[name].Clock}
			byType[ty] = a
		}
		a.total += br.Power.TotalMW
		a.net += br.Power.NetMW
		a.long += br.Stats.NumLongWire
		a.n++
		system += br.Power.TotalMW
	}

	// Iterate block types in sorted order: profile order reaches
	// core.Score's ranking and must not depend on map iteration.
	types := make([]string, 0, len(byType))
	for ty := range byType {
		types = append(types, ty)
	}
	sort.Strings(types)
	var profiles []core.BlockProfile
	for _, ty := range types {
		a := byType[ty]
		profiles = append(profiles, core.BlockProfile{
			Name:         ty,
			Copies:       a.n,
			TotalPowerMW: a.total / float64(a.n),
			NetPowerMW:   a.net / float64(a.n),
			LongWires:    a.long / a.n,
		})
	}
	sel := core.Score(profiles, system, core.DefaultCriteria())

	folded := map[string]bool{"SPC": true, "CCX": true, "L2D": true, "L2T": true, "MAC": true}
	var rows []Table3Row
	var sb strings.Builder
	sb.WriteString("== Table 3: block folding candidate profile (2D design) ==\n")
	sb.WriteString("block   power%  netpwr%  longwires  clock  copies  criteria\n")
	for _, s := range sel {
		a := byType[s.Profile.Name]
		row := Table3Row{
			Block:           s.Profile.Name,
			TotalPowerPct:   100 * s.TotalPowerPortion,
			NetPowerPct:     100 * s.Profile.NetPowerPortion(),
			LongWires:       s.Profile.LongWires,
			Clock:           a.clock.String(),
			Copies:          s.Profile.Copies,
			FoldedInPaper:   folded[s.Profile.Name],
			PassAllCriteria: s.Selected(),
		}
		rows = append(rows, row)
		mark := ""
		if row.FoldedInPaper {
			mark = " <- folded in paper"
		}
		fmt.Fprintf(&sb, "%-6s %6.1f%% %7.1f%% %9d  %-5s %6d  %v%s\n",
			row.Block, row.TotalPowerPct, row.NetPowerPct, row.LongWires,
			row.Clock, row.Copies, row.PassAllCriteria, mark)
	}
	return rows, sb.String(), nil
}

// FoldCompare holds a 2D-vs-folded block comparison (Tables 4, Figures 2-3).
type FoldCompare struct {
	Block    string
	Bond     extract.Bonding
	R2D, R3D *flow.BlockResult
	Fold     *core.FoldResult
	// Percent differences, 3D against 2D.
	FootprintPct, WirelengthPct, BuffersPct, PowerPct float64
}

func (fc *FoldCompare) fill() {
	fc.FootprintPct = pct(fc.R3D.Stats.Footprint, fc.R2D.Stats.Footprint)
	fc.WirelengthPct = pct(fc.R3D.Stats.Wirelength, fc.R2D.Stats.Wirelength)
	fc.BuffersPct = pct(float64(fc.R3D.Stats.NumBuffers), float64(fc.R2D.Stats.NumBuffers))
	fc.PowerPct = pct(fc.R3D.Power.TotalMW, fc.R2D.Power.TotalMW)
}

// String renders the 2D-versus-folded comparison rows.
func (fc *FoldCompare) String() string {
	return fmt.Sprintf("%s fold (%s): footprint %+.1f%%, wirelength %+.1f%%, buffers %+.1f%%, power %+.1f%% (vias: %d TSV / %d F2F)",
		fc.Block, fc.Bond, fc.FootprintPct, fc.WirelengthPct, fc.BuffersPct, fc.PowerPct,
		fc.R3D.Stats.NumTSV, fc.R3D.Stats.NumF2F)
}

// foldBlock implements one block 2D and folded under the given bond/options
// and returns the comparison.
func foldBlock(ctx context.Context, cfg Config, name string, bond extract.Bonding, fo core.FoldOptions) (*FoldCompare, error) {
	d, fl, err := blockWithPorts(cfg, name)
	if err != nil {
		return nil, err
	}
	b := d.Blocks[name]
	aspect := d.Specs[name].Aspect

	b2 := b.Clone()
	r2, err := fl.ImplementBlockContext(ctx, b2, aspect)
	if err != nil {
		return nil, fmt.Errorf("exp: 2D %s: %v", name, err)
	}

	fcfg := cfg.flowCfg()
	fcfg.Bond = bond
	fl3 := flow.New(d, fcfg)
	b3 := b.Clone()
	r3, fr, err := fl3.FoldAndImplementContext(ctx, b3, fo, aspect)
	if err != nil {
		return nil, fmt.Errorf("exp: folding %s: %v", name, err)
	}
	fc := &FoldCompare{Block: name, Bond: bond, R2D: r2, R3D: r3, Fold: fr}
	fc.fill()
	return fc, nil
}

// Table4 reproduces the L2D (memory-dominated) folding comparison (paper
// Table 4): two memory sub-banks land on each die with their logic; the
// footprint halves but the power saving is small because the macros
// dominate.
func Table4(ctx context.Context, cfg Config) (*FoldCompare, error) {
	fo := core.FoldOptions{
		Mode: core.FoldNatural,
		GroupDie: map[string]int{
			"bank0": 0, "bank1": 0, "bank2": 1, "bank3": 1,
		},
		Seed: cfg.Seed + 7,
	}
	return foldBlock(ctx, cfg, "L2D0", extract.F2B, fo)
}

// Table5 reproduces the full-chip dual-Vth comparison (paper Table 5):
// 2D vs 3D without folding (core/cache, F2B) vs 3D with folding (F2F).
func Table5(ctx context.Context, cfg Config) (*Table, error) {
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleFoldF2F}
	var rs []*flow.ChipResult
	for _, st := range styles {
		d, err := t2.Generate(cfg.t2cfg())
		if err != nil {
			return nil, err
		}
		fcfg := cfg.flowCfg()
		fcfg.UseHVT = true
		fl := flow.New(d, fcfg)
		r, err := fl.BuildChipContext(ctx, st)
		if err != nil {
			return nil, fmt.Errorf("exp: table5 %s: %v", st, err)
		}
		rs = append(rs, r)
	}
	t := chipTable("Table 5: full chip with dual-Vth (2D vs 3D w/o folding vs 3D w/ folding)",
		[]string{"2D", "3D w/o fold", "3D w/ fold"}, rs)
	t.Notes = append(t.Notes,
		"paper: total power -13.7% (3D w/o fold) and -20.3% (3D w/ fold) vs 2D; HVT 87.8/90.0/94.0%")
	return t, nil
}
