// Package pipeline is the stage engine of the fold3d flow: it runs a build
// as an ordered list of typed stages, each with a deterministic input
// fingerprint, and backs the list with a content-addressed artifact cache so
// that identical work — the same stages over the same inputs under the same
// configuration and seed stream — is computed once and reused, across
// worker counts, design styles and whole experiment runs.
//
// The model has three pieces:
//
//   - Stage: one named pass (floorplan, place, extract, STA, ...) with a Run
//     function and a Key function that feeds exactly the configuration the
//     stage reads into the fingerprint. Stages never call each other; they
//     are listed in a Plan and invoked only by the Executor (the fold3dlint
//     stage-call ban enforces this in internal/flow).
//
//   - Plan: a chain of stages over one input artifact. Fingerprints chain:
//     a stage's fingerprint is a content hash of (schema version, stage
//     name, the stage's key material, the fingerprint of the stage before
//     it — or the plan input for the first stage). The hash of the last
//     stage's fingerprint is the cache key of the plan's output artifact,
//     so any change to any input, option or code version upstream produces
//     a different key.
//
//   - Executor: runs a plan. With a cache attached and an ArtifactSpec
//     declared, a cache hit restores the artifact without running any stage;
//     a miss runs the stages in list order and stores the captured
//     artifact. A restored artifact is byte-identical to recomputation; the
//     flow's TestCacheEquivalence property test pins that down end to end.
//
// Determinism rules carried over from the rest of the repo: the executor
// spawns no goroutines (parallelism stays in internal/pool at the plan
// fan-out level), runs stages in a fixed order, and checks cancellation
// between stages exactly like the legacy flow checked it between phases.
package pipeline

import (
	"context"
	"fmt"

	"fold3d/internal/pool"
)

// SchemaVersion is folded into every fingerprint and into the on-disk
// artifact header. Bump it whenever a stage's semantics, an artifact
// layout, or the hashing recipe changes, so stale cache entries (in memory
// across library updates cannot happen, but on disk they can) miss instead
// of resurfacing results of older code.
const SchemaVersion = 1

// Stage is one pass of a plan.
type Stage struct {
	// Name identifies the stage within its plan and is folded into the
	// fingerprint chain.
	Name string
	// Key writes the configuration material this stage actually reads
	// (options, seeds, mode flags) into the hasher. It must be exhaustive:
	// any input that can change the stage's output and is not already part
	// of the plan input or an earlier stage's key belongs here. A nil Key
	// contributes only the stage name.
	Key func(h *Hasher)
	// Run performs the work. It must be deterministic given the fingerprint
	// inputs. Run is invoked only by the Executor.
	Run func(ctx context.Context) error
}

// Plan is an ordered chain of stages over one input artifact: each stage
// consumes what the stage before it produced.
type Plan struct {
	// Name labels the plan (diagnostics only; not part of fingerprints, so
	// identical work under different labels still shares cache entries).
	Name string
	// Input is the fingerprint of the plan's input artifact (for the flow:
	// the content hash of the block netlist plus the seed stream id). The
	// first stage chains from it.
	Input Fingerprint
	// Stages run in order.
	Stages []Stage
}

// Fingerprint computes the plan's cache key. Each stage hashes (schema
// version, stage name, key material, the fingerprint before it), starting
// from Input; the key is the hash of (schema version, last fingerprint).
// Two plans have equal fingerprints iff they would compute byte-identical
// artifacts.
func (p *Plan) Fingerprint() Fingerprint {
	fp := p.Input
	for i := range p.Stages {
		s := &p.Stages[i]
		h := NewHasher()
		h.Int(SchemaVersion)
		h.Str(s.Name)
		if s.Key != nil {
			s.Key(h)
		}
		h.Str(string(fp))
		fp = h.Sum()
	}
	h := NewHasher()
	h.Int(SchemaVersion)
	h.Str(string(fp))
	return h.Sum()
}

// ArtifactSpec declares how a plan's output is captured into the cache and
// restored from it. A nil spec (or a nil Executor cache) runs the plan
// uncached.
type ArtifactSpec struct {
	// Codec serializes the artifact for the on-disk spill; nil keeps the
	// artifact memory-only.
	Codec *Codec
	// Capture builds the cacheable artifact after a successful cold run.
	// The cache clones it on store, so Capture may return live state.
	Capture func() (Artifact, error)
	// Restore installs a cache hit. The artifact is a fresh clone owned by
	// the callee. A Restore error falls back to recomputation.
	Restore func(Artifact) error
}

// Executor runs plans against an optional shared artifact cache.
type Executor struct {
	// Cache, when non-nil, is consulted before running a plan with an
	// ArtifactSpec and filled after a cold run. The cache is safe for
	// concurrent use, so one Executor value per call site is fine.
	Cache *Cache
}

// Run executes the plan. With a cache and spec, a hit restores the cached
// artifact and runs nothing; a miss (or a failed restore) runs every stage
// in order with a cancellation check between stages, then captures and
// stores the artifact.
func (e *Executor) Run(ctx context.Context, p *Plan, spec *ArtifactSpec) error {
	var key Fingerprint
	cached := e.Cache != nil && spec != nil
	if cached {
		key = p.Fingerprint()
		if art, ok := e.Cache.Get(string(key), spec.Codec); ok {
			if err := spec.Restore(art); err == nil {
				return nil
			}
			// A restore failure means the artifact (or its decode) does not
			// fit this plan; recompute. The cold path below overwrites the
			// entry with a freshly captured artifact.
		}
	}
	for i := range p.Stages {
		if err := pool.Canceled(ctx); err != nil {
			return err
		}
		if err := p.Stages[i].Run(ctx); err != nil {
			return err
		}
	}
	if cached && spec.Capture != nil {
		art, err := spec.Capture()
		if err != nil {
			return fmt.Errorf("pipeline: plan %s: capturing artifact: %w", p.Name, err)
		}
		e.Cache.Put(string(key), art, spec.Codec)
	}
	return nil
}
