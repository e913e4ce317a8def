package exp

import (
	"context"
	"fmt"
	"sync"

	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
	"fold3d/internal/pool"
)

// Result is the uniform output of a registered generator: a printable
// report plus named artifact files (layout SVGs, Verilog/DEF/LEF dumps)
// keyed by output basename.
type Result struct {
	Name   string
	Report string
	Files  map[string]string
	// Volatile holds display-only annotations (wall-clock timings and the
	// like) that are printed alongside the report but excluded from every
	// result fingerprint: two runs that differ only in Volatile are the
	// same run.
	Volatile string
}

// Generator is one registered experiment: a table, figure, or ablation.
type Generator struct {
	Name string
	Doc  string
	Run  func(ctx context.Context, cfg Config) (*Result, error)
}

// addFile records an artifact, skipping empty content so callers can
// range over Files without filtering.
func (r *Result) addFile(name, content string) {
	if content == "" {
		return
	}
	if r.Files == nil {
		r.Files = make(map[string]string)
	}
	r.Files[name] = content
}

// adapter turns a typed generator into a registry Run: the report is the
// result's String, its artifact files come from an unexported files method
// and its display-only annotations from VolatileString, when it has them.
func adapter[R interface{ String() string }](run func(context.Context, Config) (R, error)) func(context.Context, Config) (*Result, error) {
	return func(ctx context.Context, cfg Config) (*Result, error) {
		r, err := run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res := &Result{Report: r.String()}
		if f, ok := any(r).(interface{ files(*Result) }); ok {
			f.files(res)
		}
		if v, ok := any(r).(interface{ VolatileString() string }); ok {
			res.Volatile = v.VolatileString()
		}
		return res, nil
	}
}

// table1 adapts the context-free Table1 to the generator signature.
func table1(context.Context, Config) (*Table, error) { return Table1(), nil }

// generators is the registry in canonical (paper report) order.
var generators = []Generator{
	{"table1", "3D interconnect settings (TSV and F2F via)", adapter(table1)},
	{"table2", "2D vs 3D block-level designs: 2D, core/cache, core/core (RVT)", adapter(Table2)},
	{"table3", "block folding candidate profile (2D design)", func(ctx context.Context, cfg Config) (*Result, error) {
		_, report, err := Table3(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Report: report}, nil
	}},
	{"table4", "folding the L2 data bank (2D vs folded 3D)", func(ctx context.Context, cfg Config) (*Result, error) {
		fc, err := Table4(ctx, cfg)
		if err != nil {
			return nil, err
		}
		report := "== Table 4: folding the L2 data bank ==\n" + fc.String() + "\n" +
			"paper: footprint -48.4%, WL -6.4%, buffers -33.5%, power -5.1% (memory-dominated)\n"
		return &Result{Report: report}, nil
	}},
	{"table5", "full chip with dual-Vth: 2D vs 3D without and with folding", adapter(Table5)},
	{"fig2", "folding the CCX (PCX/CPX natural split)", adapter(Figure2)},
	{"fig3", "second-level folding of a SPARC core", adapter(Figure3)},
	{"fig4", "2D-like 3D design files of the F2F via flow (L2T0)", adapter(Figure4)},
	{"fig5", "F2F via placement by 3D net routing (L2T0)", adapter(Figure5)},
	{"fig6", "bonding style impact on folded blocks (F2B vs F2F)", adapter(Figure6)},
	{"fig7", "bonding style impact vs partition (L2T folding, F2B and F2F)", adapter(Figure7)},
	{"fig8", "GDSII layouts of the five design styles", adapter(Figure8)},
	{"dualvth", "dual-Vth ablation", adapter(AblationDualVth)},
	{"macromode", "macro holes vs demand-reduction in the 3D placer (L2D0)", adapter(AblationMacroMode)},
	{"criteria", "folding criteria ablation (fold a rejected block anyway)", adapter(AblationFoldingCriteria)},
	{"thermal", "thermal study: styles, bonding, thermal vias", adapter(ThermalStudy)},
	{"coupling", "TSV-to-wire coupling capacitance ablation", adapter(AblationTSVCoupling)},
	{"rsmt", "statistical vs rectilinear-Steiner wirelength (L2T0)", adapter(AblationRSMT)},
	{"headtohead", "placement backends head-to-head across all five styles", adapter(HeadToHead)},
}

// Generators returns all registered experiments in canonical order. The
// returned slice is a copy; callers may reorder it freely.
func Generators() []Generator {
	out := make([]Generator, len(generators))
	copy(out, generators)
	return out
}

// ByName looks up a registered generator.
func ByName(name string) (Generator, bool) {
	for _, g := range generators {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// RunAll runs the named generators (nil or empty names = all of them),
// fanning out across cfg.Workers via the shared pool. Results come back
// in registry order regardless of completion order, so output is
// deterministic at any worker count. onDone, when non-nil, is invoked
// (serialized) as each generator finishes — its call order is
// scheduler-dependent, the returned slice is not. On error the
// lowest-registry-index failure is returned along with every result
// that did complete (failed or skipped slots are nil).
//
// Configuration and names are validated up front (Config.Validate,
// ValidateNames): a bad scale, negative worker count or unknown experiment
// name fails before any generator runs, with an error wrapping
// errs.ErrBadRequest. Progress callbacks are serialized across the whole
// fan-out — never concurrent, even when several generators run flows at
// once — and each event carries the name of the generator that produced it
// in Progress.Experiment.
func RunAll(ctx context.Context, cfg Config, names []string, onDone func(*Result, error)) ([]*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateNames(names); err != nil {
		return nil, err
	}
	var gens []Generator
	if len(names) == 0 {
		gens = Generators()
	} else {
		gens = make([]Generator, 0, len(names))
		for _, name := range names {
			g, _ := ByName(name)
			gens = append(gens, g)
		}
	}
	// One artifact cache across every generator: the tables and figures
	// re-implement the same chips under the same styles over and over
	// (table2's 2D chip is fig8's 2D chip, table3 and table5 rebuild all
	// five styles), so sharing turns those rebuilds into cache restores.
	// Callers wanting cross-RunAll sharing or the disk spill pass their own.
	if cfg.Cache == nil {
		cfg.Cache = pipeline.NewCache(pipeline.CacheOptions{MaxBytes: DefaultCacheBudget})
	}
	// Serialize progress callbacks across generators under one mutex (each
	// flow only serializes its own events; concurrent generators each carry
	// their own flow) and tag every event with its generator name, so a
	// consumer multiplexing the stream — the fold3dd job event feed, the
	// -progress stderr log — can attribute events without guessing.
	user := cfg.Progress
	var pmu sync.Mutex
	progressFor := func(name string) func(flow.Progress) {
		if user == nil {
			return nil
		}
		return func(p flow.Progress) {
			pmu.Lock()
			defer pmu.Unlock()
			p.Experiment = name
			user(p)
		}
	}
	results := make([]*Result, len(gens))
	var mu sync.Mutex
	err := pool.Run(ctx, cfg.Workers, len(gens), func(ctx context.Context, i int) error {
		gcfg := cfg
		gcfg.Progress = progressFor(gens[i].Name)
		r, err := gens[i].Run(ctx, gcfg)
		if err != nil {
			err = fmt.Errorf("exp: %s: %w", gens[i].Name, err)
		} else {
			r.Name = gens[i].Name
			results[i] = r
		}
		if onDone != nil {
			mu.Lock()
			onDone(r, err)
			mu.Unlock()
		}
		return err
	})
	return results, err
}
