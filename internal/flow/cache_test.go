package flow

import (
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/extract"
	"fold3d/internal/pipeline"
	"fold3d/internal/t2"
)

// TestCacheEquivalence is the cache-hit-equals-recompute property test
// behind the artifact cache: for every design style and several seeds, a
// warm-cache BuildChip must produce a fingerprint byte-identical to a cold
// build, at worker counts 1 and N. The warm runs rebuild the design from
// scratch (fresh netlists, fresh library instances), so this also covers
// the master re-interning path a cross-design cache hit takes. check.sh
// re-runs this under -race: a data race in the shared cache would
// masquerade as a fingerprint diff or corrupt a restored artifact.
func TestCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("many full-chip builds")
	}
	styles := []t2.Style{t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore,
		t2.StyleFoldF2B, t2.StyleFoldF2F}
	seeds := []uint64{42, 43, 44}
	for _, style := range styles {
		for _, seed := range seeds {
			style, seed := style, seed
			t.Run(style.String()+"/"+string(rune('0'+seed-40)), func(t *testing.T) {
				cold := chipFingerprint(t, style, seed, 1)

				cache := pipeline.NewCache(pipeline.CacheOptions{})
				withCache := func(c *Config) { c.Cache = cache }
				populate := chipFingerprintCfg(t, style, seed, 1, withCache)
				if populate != cold {
					t.Fatalf("cold build with cache attached diverged from uncached build:\n%s",
						firstDiff(populate, cold))
				}
				if st := cache.Stats(); st.Stores == 0 {
					t.Fatalf("cold build stored nothing: %+v", st)
				}

				warm1 := chipFingerprintCfg(t, style, seed, 1, withCache)
				if warm1 != cold {
					t.Fatalf("warm build (workers=1) diverged from cold build:\n%s",
						firstDiff(warm1, cold))
				}
				warmN := chipFingerprintCfg(t, style, seed, 4, withCache)
				if warmN != cold {
					t.Fatalf("warm build (workers=4) diverged from cold build:\n%s",
						firstDiff(warmN, cold))
				}
				if st := cache.Stats(); st.Hits == 0 {
					t.Fatalf("warm builds never hit the cache: %+v", st)
				}
			})
		}
	}
}

// TestCacheDiskEquivalence covers the on-disk spill end to end: a cold
// build spills to disk, a fresh in-memory cache over the same directory
// restores from it (gob decode + master re-interning), and the result is
// byte-identical.
func TestCacheDiskEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-chip builds")
	}
	dir := t.TempDir()
	cold := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 1, func(c *Config) {
		c.Cache = pipeline.NewCache(pipeline.CacheOptions{Dir: dir})
	})

	fresh := pipeline.NewCache(pipeline.CacheOptions{Dir: dir})
	warm := chipFingerprintCfg(t, t2.StyleFoldF2F, 42, 1, func(c *Config) {
		c.Cache = fresh
	})
	if warm != cold {
		t.Fatalf("disk-restored build diverged:\n%s", firstDiff(warm, cold))
	}
	st := fresh.Stats()
	if st.DiskHits == 0 {
		t.Fatalf("no disk hits: %+v", st)
	}
	if st.Corrupt != 0 {
		t.Fatalf("corrupt entries during round trip: %+v", st)
	}
}

// TestCacheCrossStyleReuse pins down the reuse matrix claim (DESIGN.md
// §11): rebuilding the same style against a shared cache restores every
// block, and the restored chip is fingerprint-identical — the mechanism
// behind exp.RunAll's shared cache win.
func TestCacheCrossStyleReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip builds")
	}
	cache := pipeline.NewCache(pipeline.CacheOptions{})
	withCache := func(c *Config) { c.Cache = cache }
	a := chipFingerprintCfg(t, t2.Style2D, 42, 1, withCache)
	stores := cache.Stats().Stores

	b := chipFingerprintCfg(t, t2.Style2D, 42, 1, withCache)
	if a != b {
		t.Fatalf("same-style rebuild diverged:\n%s", firstDiff(a, b))
	}
	st := cache.Stats()
	if st.Stores != stores {
		t.Errorf("same-style rebuild recomputed %d blocks; want all restored", st.Stores-stores)
	}
	if st.Hits != stores {
		t.Errorf("hits = %d, want one per block (%d)", st.Hits, stores)
	}
}

// TestBlockPlanKeysPinned pins the literal cache keys of one block's stage
// plan under three configurations. Disk-tier and fleet-peer entries are
// addressed by these bytes, so a changed key never fails a build — it only
// turns every previously written entry into a silent miss. A change here
// must be deliberate and bump pipeline.SchemaVersion.
func TestBlockPlanKeysPinned(t *testing.T) {
	cases := []struct {
		name string
		fold bool
		cfg  func(*Config)
		want pipeline.Fingerprint
	}{
		{"2d-default", false, func(*Config) {}, "c941a2de797637d5ccc67957882716467ccebe531beb8ad8461575322cec2439"},
		{"fold-f2b-thermal", true, func(c *Config) {
			c.Thermal = ThermalConfig{Enable: true}
		}, "2762521cb06c07482516cbd351d0b7a309e4b12f4add27b5cf9fca5d0a2dc7bb"},
		{"fold-f2f-analytical-hvt", true, func(c *Config) {
			c.Bond = extract.F2F
			c.Placer = "analytical"
			c.UseHVT = true
		}, "ff81e1aca0359606525e041ab051d43260b91cc4c755d99db87e7275cfb65970"},
	}
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42, Only: []string{"L2T0"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.cfg(&cfg)
			b := d.Blocks["L2T0"].Clone()
			if tc.fold {
				if _, err := core.Fold(b, core.DefaultFoldOptions()); err != nil {
					t.Fatal(err)
				}
			}
			st := &implState{f: New(d, cfg), b: b, aspect: d.Specs["L2T0"].Aspect}
			if got := st.blockPlan().Fingerprint(); got != tc.want {
				t.Errorf("block plan key = %q, want %q", got, tc.want)
			}
		})
	}
}
