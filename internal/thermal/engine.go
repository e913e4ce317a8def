package thermal

import (
	"fmt"
	"math"

	"fold3d/internal/errs"
	"fold3d/internal/extract"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/power"
	"fold3d/internal/tech"
)

// Solver tuning. The tolerance is the largest per-tile scaled residual
// (|r|/diag — the size of the next Jacobi update, in °C) accepted as
// converged; it matches the reference solver's 1e-4 °C update criterion so
// "equal tolerance" comparisons are meaningful. The V-cycle cap is the
// convergence guard: a healthy multigrid hierarchy converges in tens of
// cycles, so hitting the cap means the operator hierarchy is broken (see the
// seeded-bug test) and Solve reports an error instead of a wrong field.
const (
	defaultSolveTol = 1e-4
	maxVCycles      = 200
	nuPre           = 2  // pre-smoothing sweeps per level
	nuPost          = 2  // post-smoothing sweeps per level
	coarsestSweeps  = 32 // smoothing sweeps on the 1x1 coarsest level
)

// level is one grid of the multigrid hierarchy. Level 0 is the physical
// tile grid; each coarser level aggregates 2x2 fine tiles (ceil division at
// the boundary), with conductances summed Galerkin-style: a coarse edge is
// the sum of the fine edges crossing the aggregate boundary, and the
// per-tile vertical/sink/board conductances sum over the aggregate.
type level struct {
	nx, ny int
	// gx[iy*nx+ix] couples tile (ix,iy) to (ix+1,iy); the last column stays
	// zero. gy[iy*nx+ix] couples (ix,iy) to (ix,iy+1); the last row stays
	// zero.
	gx, gy []float64
	// vertK, gSink, gBoard are per-tile conductances (W/K). vertK couples
	// the two dies at the tile; gSink applies to the sink die, gBoard to
	// die 0.
	vertK, gSink, gBoard []float64
	// diag[d][i] is the precomputed diagonal of equation row (d,i).
	diag [2][]float64
	// u is the unknown (temperature on level 0, correction on coarser
	// levels), f the right-hand side, r the residual scratch.
	u, f, r [2][]float64
}

// Engine is the production thermal solver: a persistent geometric-multigrid
// V-cycle over flat per-die arrays, reusable via ReinitGrid (pool it like
// sta.Engine — the flow keeps recycled engines and reinitializes them per
// block, so steady-state solves allocate nothing but the Result). After a
// full Solve, localized power or TSV edits (AddPower, AddVertKAt) can be
// absorbed by Resolve, which relaxes an expanding window around the dirty
// region instead of re-running V-cycles over the whole grid.
//
// An Engine is not safe for concurrent use; give each goroutine its own.
type Engine struct {
	levels []*level
	// store owns every level ever allocated (len >= len(levels)) so
	// ReinitGrid and recoarsen reuse arrays instead of reallocating.
	store      []*level
	dies       int
	p          Params
	tileAreaM2 float64
	// tol is the convergence tolerance (°C of scaled residual).
	tol float64
	// solved reports that u on level 0 satisfies the current operator and
	// rhs to within tol; edits clear it only via the dirty window.
	solved bool
	// needCoarsen marks the coarse hierarchy stale after operator edits
	// (vertK changes); the next full Solve rebuilds it.
	needCoarsen bool
	// dirty window (inclusive tile bounds on level 0) accumulated by edits.
	dirty                  bool
	dLoX, dLoY, dHiX, dHiY int
	// relax counts tile-die relaxation updates — the solver's work measure,
	// used to prove incremental re-solve sub-linearity without wall-clock.
	relax int64
	// restrictScale exists for the seeded-bug test: flipping it to -1
	// breaks the restriction operator, and Solve's fine-grid residual guard
	// must then refuse to return a field. Always 1 in production.
	restrictScale float64
}

// NewEngine returns an empty engine; call ReinitGrid (or LoadBlock /
// LoadChip) before solving.
func NewEngine() *Engine {
	return &Engine{tol: defaultSolveTol, restrictScale: 1}
}

// ensure returns s resized to n and zeroed, reusing its backing array when
// large enough.
func ensure(s []float64, n int) []float64 {
	if cap(s) >= n {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n)
}

// grabLevel returns the idx'th stored level resized to nx x ny with all
// arrays zeroed.
func (e *Engine) grabLevel(idx, nx, ny int) *level {
	for len(e.store) <= idx {
		e.store = append(e.store, &level{})
	}
	lv := e.store[idx]
	n := nx * ny
	lv.nx, lv.ny = nx, ny
	lv.gx = ensure(lv.gx, n)
	lv.gy = ensure(lv.gy, n)
	lv.vertK = ensure(lv.vertK, n)
	lv.gSink = ensure(lv.gSink, n)
	lv.gBoard = ensure(lv.gBoard, n)
	for d := 0; d < 2; d++ {
		lv.diag[d] = ensure(lv.diag[d], n)
		lv.u[d] = ensure(lv.u[d], n)
		lv.f[d] = ensure(lv.f[d], n)
		lv.r[d] = ensure(lv.r[d], n)
	}
	return lv
}

// ReinitGrid resets the engine to an nx x ny tile grid with dies tiers of
// physical tile area tileAreaM2, validating p first. Lateral conductances
// and the ambient sink/board paths come from p; the vertical coupling starts
// at zero — call SetUniformVertK (and AddVertKAt for TSV pads) before
// solving a stack. All tile powers start at zero.
func (e *Engine) ReinitGrid(nx, ny, dies int, tileAreaM2 float64, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if nx < 1 || ny < 1 {
		return fmt.Errorf("thermal: %w: %w: grid must be at least 1x1, got %dx%d",
			errs.ErrBadRequest, errs.ErrBadOptions, nx, ny)
	}
	if dies != 1 && dies != 2 {
		return fmt.Errorf("thermal: %w: %w: dies must be 1 or 2, got %d",
			errs.ErrBadRequest, errs.ErrBadOptions, dies)
	}
	if !(tileAreaM2 > 0 && tileAreaM2 < math.Inf(1)) {
		return fmt.Errorf("thermal: %w: %w: tile area must be positive and finite, got %g",
			errs.ErrBadRequest, errs.ErrBadOptions, tileAreaM2)
	}
	e.dies, e.p, e.tileAreaM2 = dies, p, tileAreaM2
	e.solved, e.dirty, e.needCoarsen = false, false, true
	lv := e.grabLevel(0, nx, ny)
	e.levels = append(e.levels[:0], lv)

	gLat := p.KLateralWPerMK * (p.DieThicknessUm * 1e-6)
	gSink := p.KSinkWPerM2K * tileAreaM2
	gBoard := p.KBoardWPerM2K * tileAreaM2
	n := nx * ny
	for i := 0; i < n; i++ {
		if i%nx < nx-1 {
			lv.gx[i] = gLat
		}
		if i/nx < ny-1 {
			lv.gy[i] = gLat
		}
		lv.gSink[i] = gSink
		lv.gBoard[i] = gBoard
	}
	sinkDie := dies - 1
	for d := 0; d < dies; d++ {
		for i := 0; i < n; i++ {
			lv.u[d][i] = p.AmbientC
			// f carries the ambient boundary terms; AddPower layers the
			// tile power on top.
			if d == sinkDie {
				lv.f[d][i] += lv.gSink[i] * p.AmbientC
			}
			if d == 0 {
				lv.f[d][i] += lv.gBoard[i] * p.AmbientC
			}
		}
	}
	computeDiag(lv, dies)
	return nil
}

// computeDiag refreshes every diagonal entry of lv from its conductances.
func computeDiag(lv *level, dies int) {
	nx, ny := lv.nx, lv.ny
	sinkDie := dies - 1
	for d := 0; d < dies; d++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := iy*nx + ix
				var g float64
				if ix > 0 {
					g += lv.gx[i-1]
				}
				if ix < nx-1 {
					g += lv.gx[i]
				}
				if iy > 0 {
					g += lv.gy[i-nx]
				}
				if iy < ny-1 {
					g += lv.gy[i]
				}
				if dies == 2 {
					g += lv.vertK[i]
				}
				if d == sinkDie {
					g += lv.gSink[i]
				}
				if d == 0 {
					g += lv.gBoard[i]
				}
				lv.diag[d][i] = g
			}
		}
	}
}

// ambRHS is the ambient boundary contribution to row (d,i) of level 0.
func (e *Engine) ambRHS(d, i int) float64 {
	lv := e.levels[0]
	var a float64
	if d == e.dies-1 {
		a += lv.gSink[i] * e.p.AmbientC
	}
	if d == 0 {
		a += lv.gBoard[i] * e.p.AmbientC
	}
	return a
}

// markDirty grows the dirty window to include tile (ix,iy).
func (e *Engine) markDirty(ix, iy int) {
	if !e.dirty {
		e.dirty = true
		e.dLoX, e.dHiX, e.dLoY, e.dHiY = ix, ix, iy, iy
		return
	}
	if ix < e.dLoX {
		e.dLoX = ix
	}
	if ix > e.dHiX {
		e.dHiX = ix
	}
	if iy < e.dLoY {
		e.dLoY = iy
	}
	if iy > e.dHiY {
		e.dHiY = iy
	}
}

// AddPower adds watts (physical) to tile (ix,iy) on die.
func (e *Engine) AddPower(die, ix, iy int, watts float64) {
	lv := e.levels[0]
	lv.f[die][iy*lv.nx+ix] += watts
	e.markDirty(ix, iy)
}

// SetUniformVertK sets the die-to-die conductance of every tile to k (W/K),
// replacing any per-tile TSV contributions.
func (e *Engine) SetUniformVertK(k float64) {
	lv := e.levels[0]
	for i := range lv.vertK {
		lv.vertK[i] = k
	}
	computeDiag(lv, e.dies)
	e.needCoarsen = true
	e.markDirty(0, 0)
	e.markDirty(lv.nx-1, lv.ny-1)
}

// AddVertKAt adds dk (W/K) of die-to-die conductance at tile (ix,iy) — one
// TSV landing. No-op on a single-die grid, where there is no bond. When the
// coarse hierarchy is current, the edit is folded into it incrementally
// (each level's covering aggregate gains the same dk — aggregation
// coarsening sums child conductances), so a TSV batch between solves keeps
// Resolve's windowed V-cycle sub-linear instead of forcing an O(n²)
// re-coarsening.
func (e *Engine) AddVertKAt(ix, iy int, dk float64) {
	if e.dies != 2 {
		return
	}
	lv := e.levels[0]
	i := iy*lv.nx + ix
	lv.vertK[i] += dk
	lv.diag[0][i] += dk
	lv.diag[1][i] += dk
	if !e.needCoarsen {
		cx, cy := ix, iy
		for l := 1; l < len(e.levels); l++ {
			cx, cy = cx/2, cy/2
			c := e.levels[l]
			ci := cy*c.nx + cx
			c.vertK[ci] += dk
			c.diag[0][ci] += dk
			c.diag[1][ci] += dk
		}
	}
	e.markDirty(ix, iy)
}

// Relaxations returns the cumulative count of tile-die relaxation updates
// this engine has performed — a deterministic work measure for asserting
// incremental re-solve sub-linearity without trusting wall-clock.
func (e *Engine) Relaxations() int64 { return e.relax }

// recoarsen rebuilds the coarse hierarchy from level 0 down to a 1x1 grid.
// Stopping at a single aggregate matters: the sink coupling can be orders of
// magnitude weaker than the lateral conductance, leaving a near-singular
// global mode that smoothing barely touches — the 1x1 level, where the
// aggregated sink/board conductances dominate, resolves it exactly.
func (e *Engine) recoarsen() {
	e.levels = e.levels[:1]
	for l := 0; ; l++ {
		fine := e.levels[l]
		if fine.nx == 1 && fine.ny == 1 {
			break
		}
		cnx, cny := (fine.nx+1)/2, (fine.ny+1)/2
		c := e.grabLevel(l+1, cnx, cny)
		for iy := 0; iy < fine.ny; iy++ {
			cy := iy / 2
			for ix := 0; ix < fine.nx; ix++ {
				cx := ix / 2
				i := iy*fine.nx + ix
				ci := cy*cnx + cx
				c.vertK[ci] += fine.vertK[i]
				c.gSink[ci] += fine.gSink[i]
				c.gBoard[ci] += fine.gBoard[i]
				// A fine edge whose endpoints land in different aggregates
				// becomes part of the coarse edge between them; an edge
				// internal to an aggregate vanishes (both endpoints share
				// one coarse unknown).
				if ix < fine.nx-1 && (ix+1)/2 != cx {
					c.gx[ci] += fine.gx[i]
				}
				if iy < fine.ny-1 && (iy+1)/2 != cy {
					c.gy[ci] += fine.gy[i]
				}
			}
		}
		computeDiag(c, e.dies)
		e.levels = append(e.levels, c)
	}
	e.needCoarsen = false
}

// smoothWindow runs red-black Gauss-Seidel sweeps over the inclusive tile
// window [lx,hx] x [ly,hy] of lv. Within a color the dies update in order at
// each tile; the traversal is fixed, so results are deterministic.
func (e *Engine) smoothWindow(lv *level, lx, ly, hx, hy, sweeps int) {
	nx, ny, dies := lv.nx, lv.ny, e.dies
	for s := 0; s < sweeps; s++ {
		for color := 0; color < 2; color++ {
			for iy := ly; iy <= hy; iy++ {
				for ix := lx + ((lx ^ iy ^ color) & 1); ix <= hx; ix += 2 {
					i := iy*nx + ix
					for d := 0; d < dies; d++ {
						flow := lv.f[d][i]
						if ix > 0 {
							flow += lv.gx[i-1] * lv.u[d][i-1]
						}
						if ix < nx-1 {
							flow += lv.gx[i] * lv.u[d][i+1]
						}
						if iy > 0 {
							flow += lv.gy[i-nx] * lv.u[d][i-nx]
						}
						if iy < ny-1 {
							flow += lv.gy[i] * lv.u[d][i+nx]
						}
						if dies == 2 {
							flow += lv.vertK[i] * lv.u[1-d][i]
						}
						lv.u[d][i] = flow / lv.diag[d][i]
					}
				}
			}
		}
	}
	e.relax += int64(sweeps) * int64(dies) * int64(hx-lx+1) * int64(hy-ly+1)
}

// residual fills lv.r with f - A u over the whole level.
func (e *Engine) residual(lv *level) {
	e.residualWindow(lv, 0, 0, lv.nx-1, lv.ny-1)
}

// residualWindow fills lv.r with f - A u over the inclusive window; entries
// outside it are left stale and must not be read.
func (e *Engine) residualWindow(lv *level, lx, ly, hx, hy int) {
	nx, ny := lv.nx, lv.ny
	for d := 0; d < e.dies; d++ {
		for iy := ly; iy <= hy; iy++ {
			for ix := lx; ix <= hx; ix++ {
				i := iy*nx + ix
				flow := lv.f[d][i] - lv.diag[d][i]*lv.u[d][i]
				if ix > 0 {
					flow += lv.gx[i-1] * lv.u[d][i-1]
				}
				if ix < nx-1 {
					flow += lv.gx[i] * lv.u[d][i+1]
				}
				if iy > 0 {
					flow += lv.gy[i-nx] * lv.u[d][i-nx]
				}
				if iy < ny-1 {
					flow += lv.gy[i] * lv.u[d][i+nx]
				}
				if e.dies == 2 {
					flow += lv.vertK[i] * lv.u[1-d][i]
				}
				lv.r[d][i] = flow
			}
		}
	}
}

// scaledResidual returns the largest |r|/diag (°C of pending Jacobi update)
// over the inclusive window — the convergence measure.
func (e *Engine) scaledResidual(lv *level, lx, ly, hx, hy int) float64 {
	nx, ny := lv.nx, lv.ny
	var worst float64
	for d := 0; d < e.dies; d++ {
		for iy := ly; iy <= hy; iy++ {
			for ix := lx; ix <= hx; ix++ {
				i := iy*nx + ix
				flow := lv.f[d][i] - lv.diag[d][i]*lv.u[d][i]
				if ix > 0 {
					flow += lv.gx[i-1] * lv.u[d][i-1]
				}
				if ix < nx-1 {
					flow += lv.gx[i] * lv.u[d][i+1]
				}
				if iy > 0 {
					flow += lv.gy[i-nx] * lv.u[d][i-nx]
				}
				if iy < ny-1 {
					flow += lv.gy[i] * lv.u[d][i+nx]
				}
				if e.dies == 2 {
					flow += lv.vertK[i] * lv.u[1-d][i]
				}
				if v := math.Abs(flow) / lv.diag[d][i]; v > worst {
					worst = v
				}
			}
		}
	}
	return worst
}

// vcycle runs one V-cycle rooted at level l: pre-smooth, restrict the
// residual (summation over 2x2 aggregates, matching the piecewise-constant
// prolongation), recurse, prolong the correction, post-smooth.
func (e *Engine) vcycle(l int) {
	lv := e.levels[l]
	if l == len(e.levels)-1 {
		e.smoothWindow(lv, 0, 0, lv.nx-1, lv.ny-1, coarsestSweeps)
		return
	}
	e.smoothWindow(lv, 0, 0, lv.nx-1, lv.ny-1, nuPre)
	e.residual(lv)
	c := e.levels[l+1]
	for d := 0; d < e.dies; d++ {
		cf, cu := c.f[d], c.u[d]
		for i := range cf {
			cf[i] = 0
			cu[i] = 0
		}
		for iy := 0; iy < lv.ny; iy++ {
			cy := iy / 2
			for ix := 0; ix < lv.nx; ix++ {
				cf[cy*c.nx+ix/2] += e.restrictScale * lv.r[d][iy*lv.nx+ix]
			}
		}
	}
	e.vcycle(l + 1)
	for d := 0; d < e.dies; d++ {
		for iy := 0; iy < lv.ny; iy++ {
			cy := iy / 2
			for ix := 0; ix < lv.nx; ix++ {
				lv.u[d][iy*lv.nx+ix] += c.u[d][cy*c.nx+ix/2]
			}
		}
	}
	e.smoothWindow(lv, 0, 0, lv.nx-1, lv.ny-1, nuPost)
}

// windowPad is how far each coarse window extends beyond the parents of the
// fine window in the windowed V-cycle — room for the local part of the
// coarse correction to spread past the dirty region.
const windowPad = 2

// vcycleWindow is the incremental-re-solve V-cycle: relaxation work —
// smoothing and residual evaluation — runs only inside a window around the
// dirty region at every level, with the window shrinking geometrically
// toward the coarse grids. The restricted residual is zero outside the
// window (everything farther out still satisfied the previous converged
// solve to below tolerance), but the resulting coarse correction is NOT
// clipped: it is prolonged over the whole level, because a localized
// conductance or power edit shifts the global (weak-sink) temperature mode
// everywhere, and that smooth component must land outside the window too —
// applying a smooth correction costs only streaming adds and leaves
// sub-tolerance residual where no smoothing happens. Once the window covers
// a level, the plain V-cycle takes over below it. Returns the fine-level
// post-smoothing window (the only region where sharp error can remain).
func (e *Engine) vcycleWindow(l, lx, ly, hx, hy int) (rlx, rly, rhx, rhy int) {
	lv := e.levels[l]
	if l == len(e.levels)-1 {
		e.smoothWindow(lv, lx, ly, hx, hy, coarsestSweeps)
		return lx, ly, hx, hy
	}
	if lx == 0 && ly == 0 && hx == lv.nx-1 && hy == lv.ny-1 {
		e.vcycle(l)
		return lx, ly, hx, hy
	}
	e.smoothWindow(lv, lx, ly, hx, hy, nuPre)
	e.residualWindow(lv, lx, ly, hx, hy)
	c := e.levels[l+1]
	clx, cly := clampLo(lx/2-windowPad), clampLo(ly/2-windowPad)
	chx, chy := clampHi(hx/2+windowPad, c.nx), clampHi(hy/2+windowPad, c.ny)
	for d := 0; d < e.dies; d++ {
		cu, cf := c.u[d], c.f[d]
		for i := range cf {
			cu[i] = 0
			cf[i] = 0
		}
		for iy := ly; iy <= hy; iy++ {
			cy := iy / 2
			for ix := lx; ix <= hx; ix++ {
				cf[cy*c.nx+ix/2] += e.restrictScale * lv.r[d][iy*lv.nx+ix]
			}
		}
	}
	e.vcycleWindow(l+1, clx, cly, chx, chy)
	for d := 0; d < e.dies; d++ {
		for iy := 0; iy < lv.ny; iy++ {
			cy := iy / 2
			for ix := 0; ix < lv.nx; ix++ {
				lv.u[d][iy*lv.nx+ix] += c.u[d][cy*c.nx+ix/2]
			}
		}
	}
	// Post-smooth where sharp error can live: the window plus the image of
	// the coarse pad.
	slx, sly := clampLo(lx-2*windowPad), clampLo(ly-2*windowPad)
	shx, shy := clampHi(hx+2*windowPad+1, lv.nx), clampHi(hy+2*windowPad+1, lv.ny)
	e.smoothWindow(lv, slx, sly, shx, shy, nuPost)
	return slx, sly, shx, shy
}

// Solve runs full V-cycles until the fine-grid scaled residual is within
// tolerance and returns the solved field. The convergence check lives on
// the fine grid only, so an inaccurate (or broken) coarse hierarchy can
// slow convergence but never corrupt a returned Result; if the cycle cap is
// hit first, Solve returns an error instead of an unconverged field.
func (e *Engine) Solve() (*Result, error) {
	if len(e.levels) == 0 {
		return nil, fmt.Errorf("thermal: engine not initialized (call ReinitGrid, LoadBlock or LoadChip first)")
	}
	if e.needCoarsen {
		e.recoarsen()
	}
	fine := e.levels[0]
	for cycle := 0; ; cycle++ {
		if e.scaledResidual(fine, 0, 0, fine.nx-1, fine.ny-1) < e.tol {
			e.solved = true
			e.dirty = false
			return e.result(), nil
		}
		if cycle >= maxVCycles {
			return nil, fmt.Errorf("thermal: multigrid stalled above tolerance %g after %d V-cycles (broken operator hierarchy?)",
				e.tol, maxVCycles)
		}
		e.vcycle(0)
	}
}

// Resolve absorbs the edits since the last converged solve with windowed
// V-cycles around the dirty region — sub-linear in grid size for localized
// edits (a TSV batch, a few power tweaks): per-level windows shrink
// geometrically toward the coarse grids, so the work per cycle depends on
// the dirty-region size, not the grid size. The window starts at the dirty
// bounding box plus two tiles; after each cycle the residual is checked
// over the changed region plus a one-tile ring (the only tiles an in-window
// update can disturb — everything farther out still satisfies the previous
// converged solve), and the window grows until it converges or covers the
// grid, at which point Resolve falls back to a full Solve.
func (e *Engine) Resolve() (*Result, error) {
	if len(e.levels) == 0 {
		return nil, fmt.Errorf("thermal: engine not initialized (call ReinitGrid, LoadBlock or LoadChip first)")
	}
	if !e.solved || e.needCoarsen {
		return e.Solve()
	}
	if !e.dirty {
		return e.result(), nil
	}
	fine := e.levels[0]
	nx, ny := fine.nx, fine.ny
	lx, ly := clampLo(e.dLoX-2), clampLo(e.dLoY-2)
	hx, hy := clampHi(e.dHiX+2, nx), clampHi(e.dHiY+2, ny)
	for cycle := 0; ; cycle++ {
		if lx == 0 && ly == 0 && hx == nx-1 && hy == ny-1 {
			return e.Solve()
		}
		if cycle >= maxVCycles {
			return nil, fmt.Errorf("thermal: incremental re-solve stalled above tolerance %g after %d windowed V-cycles",
				e.tol, maxVCycles)
		}
		lx, ly, hx, hy = e.vcycleWindow(0, lx, ly, hx, hy)
		// Acceptance is the same full-grid scaled-residual criterion as
		// Solve — a flops-only scan, no relaxation work — so an incremental
		// answer can never be weaker than a from-scratch one.
		if e.scaledResidual(fine, 0, 0, nx-1, ny-1) < e.tol {
			e.solved = true
			e.dirty = false
			return e.result(), nil
		}
		lx, ly = clampLo(lx-2), clampLo(ly-2)
		hx, hy = clampHi(hx+2, nx), clampHi(hy+2, ny)
	}
}

func clampLo(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

func clampHi(v, n int) int {
	if v > n-1 {
		return n - 1
	}
	return v
}

// result copies the fine-grid field into a fresh Result (the engine is
// pooled; returned slices must outlive the next Reinit).
func (e *Engine) result() *Result {
	fine := e.levels[0]
	var t [2][]float64
	for d := 0; d < e.dies; d++ {
		t[d] = append([]float64(nil), fine.u[d]...)
	}
	return summarize(t, fine.nx, fine.ny, e.dies)
}

// PeakTile returns the hottest tile of the current fine-grid field (first
// in die-major scan order on ties). Meaningful after Solve or Resolve.
func (e *Engine) PeakTile() (die, ix, iy int, tC float64) {
	fine := e.levels[0]
	tC = math.Inf(-1)
	for d := 0; d < e.dies; d++ {
		for y := 0; y < fine.ny; y++ {
			for x := 0; x < fine.nx; x++ {
				if v := fine.u[d][y*fine.nx+x]; v > tC {
					die, ix, iy, tC = d, x, y, v
				}
			}
		}
	}
	return die, ix, iy, tC
}

// LoadBlock reinitializes the engine with one implemented block's thermal
// problem: a 16x16 tile grid over the outline, per-tile power from the
// block's cells, macros and nets at their placed positions, and the bond's
// vertical coupling (plus TSV pad conductances under F2B). The returned
// grid maps tile indices back to block coordinates, so callers placing
// thermal vias can convert hotspot tiles into sites.
func (e *Engine) LoadBlock(b *netlist.Block, sm tech.ScaleModel, bond extract.Bonding, p Params) (*geom.Grid, error) {
	dies := 1
	if b.Is3D {
		dies = 2
	}
	out := b.Outline[0]
	if b.Is3D {
		out = out.Union(b.Outline[1])
	}
	if out.Area() <= 0 {
		return nil, fmt.Errorf("thermal: block %s has no outline", b.Name)
	}
	const nx, ny = 16, 16
	grid, err := geom.NewGrid(out, nx, ny)
	if err != nil {
		return nil, fmt.Errorf("thermal: %v", err)
	}

	// Tile geometry at physical scale.
	shrink := sm.LinearShrink()
	dx, dy := grid.BinSize()
	tileAreaM2 := (dx * shrink * 1e-6) * (dy * shrink * 1e-6)
	if err := e.ReinitGrid(nx, ny, dies, tileAreaM2, p); err != nil {
		return nil, err
	}

	mult := sm.PowerMultiplier() * 1e-3 // mW -> W at physical magnitude
	freq := b.Clock.FreqMHz()
	add := func(pt geom.Point, die netlist.Die, mw float64) {
		ix, iy := grid.BinAt(pt)
		e.AddPower(int(die), ix, iy, mw*mult)
	}
	for i := range b.Cells {
		c := &b.Cells[i]
		act := c.Activity
		if act == 0 {
			act = power.DefaultActivity
		}
		if c.IsClockBuf {
			act = 2
		}
		mw := tech.DynamicPowerMW(c.Master.IntCap, act, freq) + c.Master.LeaknW*1e-6
		add(c.Center(), c.Die, mw)
	}
	for i := range b.Macros {
		m := &b.Macros[i]
		act := m.Activity
		if act == 0 {
			act = 0.5
		}
		mw := m.Model.ReadEnergyFJ*act*freq*1e-6 + m.Model.LeakmW
		add(m.Center(), m.Die, mw)
	}
	for i := range b.Nets {
		n := &b.Nets[i]
		act := n.Activity
		if act == 0 {
			act = power.DefaultActivity
		}
		mw := tech.DynamicPowerMW(n.WireCapfF, act, freq)
		add(b.PinPos(n.Driver), b.PinDie(n.Driver), mw)
	}

	// Vertical conductance per tile: bond baseline plus TSV copper (F2B).
	base := p.KBondBaseWPerM2K
	if bond == extract.F2F {
		// Metal-to-metal face bond conducts better than the F2B adhesive,
		// but the stack loses the TSV thermal paths.
		base *= 1.8
	}
	e.SetUniformVertK(base * tileAreaM2)
	if bond == extract.F2B {
		// Each physical TSV adds its copper conductance at its pad's tile.
		perPad := math.Sqrt(sm.Scale) // one drawn pad stands for many vias
		for _, pad := range b.TSVPads {
			ix, iy := grid.BinAt(pad.Center())
			e.AddVertKAt(ix, iy, p.KTSVWPerK*perPad)
		}
	}
	return grid, nil
}

// LoadChip reinitializes the engine with the chip-level thermal problem: a
// 24x24 tile grid over the chip outline, per-block power totals spread
// uniformly over each block's floorplan rectangle, and tsvs physical TSVs
// smeared into the bond conductance. The returned grid maps tile indices to
// chip coordinates.
func (e *Engine) LoadChip(outline geom.Rect, tiles []ChipPowerTile, dies int, bond extract.Bonding, tsvs int, sm tech.ScaleModel, p Params) (*geom.Grid, error) {
	if outline.Area() <= 0 {
		return nil, fmt.Errorf("thermal: empty chip outline")
	}
	const nx, ny = 24, 24
	grid, err := geom.NewGrid(outline, nx, ny)
	if err != nil {
		return nil, fmt.Errorf("thermal: %v", err)
	}
	shrink := sm.LinearShrink()
	dx, dy := grid.BinSize()
	tileAreaM2 := (dx * shrink * 1e-6) * (dy * shrink * 1e-6)
	if err := e.ReinitGrid(nx, ny, dies, tileAreaM2, p); err != nil {
		return nil, err
	}
	for _, t := range tiles {
		area := t.Rect.Area()
		if area <= 0 {
			continue
		}
		watts := t.PowerMW * 1e-3
		grid.OverlapBins(t.Rect, func(ix, iy int, a float64) {
			share := watts * a / area
			if t.Both && dies == 2 {
				e.AddPower(0, ix, iy, share/2)
				e.AddPower(1, ix, iy, share/2)
			} else {
				e.AddPower(int(t.Die), ix, iy, share)
			}
		})
	}
	base := p.KBondBaseWPerM2K
	if bond == extract.F2F {
		base *= 1.8
	}
	e.SetUniformVertK(base*tileAreaM2 + p.KTSVWPerK*float64(tsvs)/float64(nx*ny))
	return grid, nil
}
