package flow

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/floorplan"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/t2"
)

// dies renders a block's fold state (every cell, macro and port die, plus
// Is3D) as bytes for comparison.
func dies(b *netlist.Block) []byte {
	var out []byte
	for i := range b.Cells {
		out = append(out, byte(b.Cells[i].Die))
	}
	for i := range b.Macros {
		out = append(out, byte(b.Macros[i].Die))
	}
	for i := range b.Ports {
		out = append(out, byte(b.Ports[i].Die))
	}
	if b.Is3D {
		out = append(out, '3')
	}
	return out
}

// genBlockWithPorts generates one block and attaches its chip-level ports
// from the 2D floorplan, the way the block experiments hand blocks to the
// fold, so port dies are part of what a fold writes.
func genBlockWithPorts(t *testing.T, name string) (*t2.Design, *Flow) {
	t.Helper()
	d, f := genBlocks(t, name)
	shapes := make(map[string]floorplan.Shape, len(d.Specs))
	for n, spec := range d.Specs {
		w, h := f.EstimateShape(spec, 1)
		shapes[n] = floorplan.Shape{Name: n, W: w, H: h}
	}
	fp, err := floorplan.RowPlan(shapes, t2.Rows(t2.Style2D), 4)
	if err != nil {
		t.Fatal(err)
	}
	chipNets, err := floorplan.AssignPorts(d.Blocks, fp, d.DrawnBundles())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ConnectPorts(chipNets); err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks[name].Ports) == 0 {
		t.Fatalf("%s has no ports", name)
	}
	return d, f
}

// TestFoldCacheEquivalence is the fold plan's cache-hit-equals-recompute
// property, for every fold mode: a fold restored from the cache must leave
// the block exactly as a cold fold does (dies, Is3D), return the same
// FoldResult bit for bit, and implement into the same block entry.
func TestFoldCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("eight block implementations")
	}
	inflated := core.DefaultFoldOptions()
	inflated.InflateCutTo = 400
	cases := []struct {
		name  string
		block string
		fo    func(*Flow) core.FoldOptions
	}{
		{"natural", "CCX", func(f *Flow) core.FoldOptions { return f.foldOptionsFor("CCX") }},
		{"mincut", "L2T0", func(f *Flow) core.FoldOptions { return f.foldOptionsFor("L2T0") }},
		{"second-level", "SPC0", func(f *Flow) core.FoldOptions { return f.foldOptionsFor("SPC0") }},
		{"mincut-inflated", "L2T0", func(*Flow) core.FoldOptions { return inflated }},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, cold := genBlockWithPorts(t, tc.block)
			fo := tc.fo(cold)
			aspect := d.Specs[tc.block].Aspect

			bCold := d.Blocks[tc.block].Clone()
			frCold, err := cold.fold(ctx, bCold, fo)
			if err != nil {
				t.Fatal(err)
			}

			cfg := DefaultConfig()
			cfg.Cache = pipeline.NewCache(pipeline.CacheOptions{})
			cached := New(d, cfg)
			if _, err := cached.fold(ctx, d.Blocks[tc.block].Clone(), fo); err != nil {
				t.Fatal(err)
			}
			bWarm := d.Blocks[tc.block].Clone()
			frWarm, err := cached.fold(ctx, bWarm, fo)
			if err != nil {
				t.Fatal(err)
			}
			if st := cfg.Cache.Stats(); st.Hits != 1 || st.Stores != 1 {
				t.Fatalf("want one store then one hit, got %+v", st)
			}

			if !bytes.Equal(dies(bWarm), dies(bCold)) {
				t.Fatal("restored fold left different dies or Is3D than a cold fold")
			}
			if frWarm.CutNets != frCold.CutNets ||
				math.Float64bits(frWarm.AreaPerDie[0]) != math.Float64bits(frCold.AreaPerDie[0]) ||
				math.Float64bits(frWarm.AreaPerDie[1]) != math.Float64bits(frCold.AreaPerDie[1]) {
				t.Fatalf("restored FoldResult %+v, cold %+v", *frWarm, *frCold)
			}

			// Folds racing through one fresh cache (as parallel experiments
			// and fold3dd jobs do) all match the cold fold as well.
			shared := DefaultConfig()
			shared.Cache = pipeline.NewCache(pipeline.CacheOptions{})
			racing := New(d, shared)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				b := d.Blocks[tc.block].Clone()
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := racing.fold(ctx, b, fo); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(dies(b), dies(bCold)) {
						t.Error("concurrent fold through a shared cache differs from a cold fold")
					}
				}()
			}
			wg.Wait()

			// Implement both blocks without a cache, so each really runs.
			rCold, err := cold.ImplementBlock(bCold, aspect)
			if err != nil {
				t.Fatal(err)
			}
			rWarm, err := cold.ImplementBlock(bWarm, aspect)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blockEntry(t, cold, rWarm), blockEntry(t, cold, rCold)) {
				t.Fatal("block folded from the cache implemented differently from a cold fold")
			}
		})
	}
}

// TestFoldPlanKeyPinned pins the fold plan's cache key and shows what the
// key does and does not see: every FoldOptions field and every die of the
// block is in it, map insertion order of GroupDie is not.
func TestFoldPlanKeyPinned(t *testing.T) {
	d, f := genBlocks(t, "CCX")
	base := f.foldOptionsFor("CCX")
	key := func(b *netlist.Block, fo core.FoldOptions) pipeline.Fingerprint {
		st := &foldState{b: b, fo: fo}
		return st.plan().Fingerprint()
	}
	b := d.Blocks["CCX"]
	const pinned = "0a3f42d2daec0f95a159b464a0eb136dd3adf0d6dfe94633aca8c606e023e3b8"
	want := key(b, base)
	if want != pinned {
		t.Errorf("fold plan key = %q, want %q", want, pinned)
	}

	edits := []struct {
		field string
		edit  func(*core.FoldOptions)
	}{
		{"Mode", func(fo *core.FoldOptions) { fo.Mode = core.FoldMinCut }},
		{"GroupDie", func(fo *core.FoldOptions) { fo.GroupDie = map[string]int{"pcx": 1, "cpx": 0} }},
		{"FoldGroups", func(fo *core.FoldOptions) { fo.FoldGroups = []string{"pcx"} }},
		{"BalanceTol", func(fo *core.FoldOptions) { fo.BalanceTol = 0.1 }},
		{"InflateCutTo", func(fo *core.FoldOptions) { fo.InflateCutTo = 10 }},
		{"Seed", func(fo *core.FoldOptions) { fo.Seed++ }},
	}
	for _, e := range edits {
		fo := base
		e.edit(&fo)
		if key(b, fo) == want {
			t.Errorf("changing %s kept the fold plan key", e.field)
		}
	}
	moved := b.Clone()
	moved.Cells[0].Die = 1 - moved.Cells[0].Die
	if key(moved, base) == want {
		t.Error("moving one cell to the other die kept the fold plan key")
	}

	// GroupDie is hashed in sorted key order: the same map built in the
	// other insertion order hits.
	reordered := base
	reordered.GroupDie = make(map[string]int)
	reordered.GroupDie["cpx"] = 1
	reordered.GroupDie["pcx"] = 0
	if key(b, reordered) != want {
		t.Error("GroupDie insertion order changed the fold plan key")
	}
}

// TestFoldCacheCrossStyle pins the fold row of the reuse matrix (DESIGN
// §11): the F2B and F2F folded styles fold the same blocks under the same
// options, so in one shared cache the F2F build restores every fold the
// F2B build stored and runs FM on none of them. Its block plans key on the
// bonding and all miss, so the second build's hits are exactly its folds.
func TestFoldCacheCrossStyle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	folded := 0
	for _, spec := range t2.Blocks() {
		if t2.FoldedInStyle(t2.StyleFoldF2F, spec.Name) {
			folded++
		}
	}
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	withCache := func(c *Config) { c.Cache = cache }
	chipFingerprintCfg(t, t2.StyleFoldF2B, 42, 1, withCache)
	before := cache.Stats()
	warm := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 1, withCache)
	st := cache.Stats()
	if hits := st.Hits - before.Hits; hits != folded {
		t.Errorf("F2F build after F2B hit the cache %d times, want one fold hit per folded block (%d)", hits, folded)
	}
	if cold := chipFingerprint(t, t2.StyleFoldF2F, 42, 1); warm != cold {
		t.Fatalf("F2F build on restored folds diverged from a cold build:\n%s", firstDiff(warm, cold))
	}
}
