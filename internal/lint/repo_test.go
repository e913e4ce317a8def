package lint

import (
	"fmt"
	"testing"
)

// TestRepoIsLintClean is the tier-1 gate: the full fold3d module must pass
// every check of the suite. A failure here means either a genuine policy
// violation (fix the code) or an intentional exception that needs a
// //lint:ignore <check> <reason> directive at the site.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadModule(nil)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	cfg := DefaultConfig()
	for _, f := range Run(cfg, pkgs, AllChecks()) {
		t.Errorf("%s", f)
	}
	// Every scope entry must name a loaded package: a renamed package
	// would otherwise silently escape its rule.
	scopes := map[string][]string{"AlgoPackages": cfg.AlgoPackages, "CtxPackages": cfg.CtxPackages}
	for i, b := range cfg.Bans {
		scopes[fmt.Sprintf("Bans[%d].In", i)] = b.In
		scopes[fmt.Sprintf("Bans[%d].Except", i)] = b.Except
	}
	for field, sufs := range scopes {
		for _, suf := range sufs {
			found := false
			for _, p := range pkgs {
				found = found || matchesSuffix(p.Path, []string{suf})
			}
			if !found {
				t.Errorf("%s entry %q matches no package in the module", field, suf)
			}
		}
	}
}
