package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// importedPath resolves ident to the import path of the package it names,
// or "" when ident is not a package qualifier.
func importedPath(p *Package, ident *ast.Ident) string {
	if pn, ok := p.Info.Uses[ident].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// DeterminismCheck forbids ambient nondeterminism in algorithm packages.
// Every stochastic decision in the flow must draw from internal/rng so that
// a (design, seed) pair maps to exactly one result; math/rand has global
// state, time.Now varies per run, and os.Getenv makes behavior depend on
// the machine the experiment happens to run on.
//
// The goroutine rule is stricter: bare go statements are flagged in every
// package outside the go row's exceptions, not just algorithm packages.
// Ad-hoc goroutines race on completion order; concurrency must route
// through the worker pool, whose indexed result slots and sorted merge
// keep parallel runs byte-identical to sequential ones. Every rule is a
// determinism row of Config.Bans.
func DeterminismCheck() *Check {
	return &Check{
		Name: "determinism",
		Doc:  "forbid math/rand, time.Now, os.Getenv and unmanaged goroutines (use internal/rng, internal/pool)",
		Run: func(cfg *Config, p *Package) []Finding {
			return runBans(cfg, p, "determinism")
		},
	}
}

// isAlgoPackage reports whether path is one of the packages the determinism
// policy covers.
func (cfg *Config) isAlgoPackage(path string) bool {
	return matchesSuffix(path, cfg.AlgoPackages)
}

// matchesSuffix reports whether path ends in one of the import-path
// suffixes.
func matchesSuffix(path string, sufs []string) bool {
	for _, suf := range sufs {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}
